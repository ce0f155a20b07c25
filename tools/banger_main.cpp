// The `banger` command-line environment; all logic lives in cli/cli.cpp.
#include <iostream>
#include <string>
#include <vector>

#include "cli/cli.hpp"

int main(int argc, char** argv) {
  // banger does all its console I/O through iostreams. Unsynchronised
  // streams are buffered: `banger serve` reads request lines of
  // megabytes from stdin, one locked getc() per byte otherwise.
  std::ios::sync_with_stdio(false);
  std::vector<std::string> args(argv + 1, argv + argc);
  return banger::cli::run(args, std::cout, std::cerr);
}

// banger/util/file.hpp
//
// The one way the environment reads a text file: designs, machines,
// fault plans, saved schedules and `--inputs` batches all come through
// read_file, so every loader reports a missing or unreadable path the
// same way.
#pragma once

#include <string>

namespace banger::util {

/// Returns the whole contents of `path`. A regular file is read into a
/// buffer of its size with one read; a pipe reads on to end of file.
/// Throws Error{Io} naming the path when it cannot be opened or read
/// (a directory, for one).
std::string read_file(const std::string& path);

}  // namespace banger::util

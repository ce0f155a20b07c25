#include "util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace banger::util {

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(ErrorCode::Io, "cannot open `" + path + "` for reading");
  struct Closer {
    int fd;
    explicit Closer(int f) : fd(f) {}
    Closer(const Closer&) = delete;
    Closer& operator=(const Closer&) = delete;
    ~Closer() { ::close(fd); }
  } closer(fd);
  struct stat st{};
  const bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  // One byte past a regular file's size, so its one read comes up short
  // and the next returns end of file; other files grow as they fill.
  std::string text(sized ? static_cast<std::size_t>(st.st_size) + 1 : 4096,
                   '\0');
  std::size_t used = 0;
  for (;;) {
    if (used == text.size()) text.resize(text.size() * 2);
    const ssize_t got = ::read(fd, text.data() + used, text.size() - used);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      fail(ErrorCode::Io,
           "cannot read `" + path + "`: " + std::strerror(errno));
    }
    used += static_cast<std::size_t>(got);
  }
  text.resize(used);
  return text;
}

}  // namespace banger::util

// Test helper: sets an environment variable for one scope and restores
// the previous value (or its absence) on exit. Tests use it to run the
// same work under different BANGER_JOBS settings in one process; set it
// only while no other thread is reading the environment.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace banger::tests {

class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    ::setenv(name_.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

}  // namespace banger::tests

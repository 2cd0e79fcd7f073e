#include "util/logging.h"

#include <cstdlib>
#include <cstring>
#include <iostream>

namespace koko {
namespace internal_logging {

FatalMessage::FatalMessage(const char* file, int line) {
  const char* basename = std::strrchr(file, '/');
  stream_ << "[FATAL " << (basename ? basename + 1 : file) << ":" << line
          << "] ";
}

FatalMessage::~FatalMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  std::abort();
}

}  // namespace internal_logging
}  // namespace koko

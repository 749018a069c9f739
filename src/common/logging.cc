#include "common/logging.h"

#include <cstdio>

namespace ads::common {

namespace {
// Messages below this severity are dropped.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}
}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= kMinLevel) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

FatalLogMessage::FatalLogMessage(const char* file, int line) {
  stream_ << "[FATAL " << Basename(file) << ":" << line << "] ";
}

FatalLogMessage::~FatalLogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace internal_logging
}  // namespace ads::common

#ifndef ADS_COMMON_LOGGING_H_
#define ADS_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace ads::common {

/// Severity levels for the library logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_logging {

/// Accumulates one log line and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Like LogMessage but aborts the process after emitting.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace ads::common

#define ADS_LOG(level)                                             \
  ::ads::common::internal_logging::LogMessage(                     \
      ::ads::common::LogLevel::k##level, __FILE__, __LINE__)       \
      .stream()

/// Checks an invariant; on failure logs the condition and aborts. Used for
/// programmer errors (not data errors, which return Status).
#define ADS_CHECK(cond)                                                     \
  if (cond) {                                                               \
  } else                                                                    \
    ::ads::common::internal_logging::FatalLogMessage(__FILE__, __LINE__)    \
            .stream()                                                       \
        << "Check failed: " #cond " "

#define ADS_CHECK_OK(expr)                                                  \
  if (::ads::common::Status ads_check_status_ = (expr);                     \
      ads_check_status_.ok()) {                                             \
  } else                                                                    \
    ::ads::common::internal_logging::FatalLogMessage(__FILE__, __LINE__)    \
            .stream()                                                       \
        << "Status not OK: " << ads_check_status_.ToString() << " "

#endif  // ADS_COMMON_LOGGING_H_

// What the confcc and confccd tools share: the numeric-flag parser, the
// file and JSON sink writers, and the main() wrapper. Every message these
// print starts with the tool's name, which RunTool records.
#ifndef CONFLLVM_TOOLS_CLI_H_
#define CONFLLVM_TOOLS_CLI_H_

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "src/support/fault_injection.h"
#include "src/support/strings.h"

namespace confllvm::cli {

inline const char* g_tool = "";
// --inject-report=F: the fault injector's counters, written by RunTool.
inline std::string g_inject_report;

// Parses a numeric flag's value into `*out`. A value that is not an
// unsigned integer (decimal, 0x hex or 0 octal), or that `T` cannot hold,
// gets a one-line diagnostic, and the caller exits with the usage text.
template <typename T>
bool ParseFlag(const char* flag, const std::string& value, T* out) {
  uint64_t v = 0;
  if (!ParseU64(value, &v) || static_cast<T>(v) != v) {
    fprintf(stderr, "%s: bad %s '%s' (expected an unsigned integer)\n", g_tool,
            flag, value.c_str());
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

// Writes `bytes` to `path`; false after a one-line diagnostic, naming the
// file as `what` when given, when it cannot be written.
inline bool WriteFile(const std::string& path, std::string_view bytes,
                      const char* what = nullptr) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out ||
      !out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    fprintf(stderr, "%s: cannot write %s%s%s\n", g_tool,
            what != nullptr ? what : "", what != nullptr ? " " : "",
            path.c_str());
    return false;
  }
  return true;
}

// Writes one dumped JSON document to `path`, newline-terminated.
inline bool WriteSink(const std::string& path, const std::string& json,
                      const char* what = nullptr) {
  return WriteFile(path, json + "\n", what);
}

// A tool's main(): arms the fault injector from CONFCC_INJECT_FAULTS (an
// --inject-faults flag that `body` parses overrides it), runs `body`, and
// turns any error escaping it into a one-line `<tool>: fatal:` diagnostic
// and exit 1, never a raw terminate. The --inject-report file (named as
// `report_what` in a write failure) is written even after a fatal error,
// so a chaos run that dies still reports what fired.
inline int RunTool(const char* tool, int (*body)(int, char**), int argc,
                   char** argv, const char* report_what = nullptr) {
  g_tool = tool;
  std::string env_err;
  if (!FaultInjector::Instance().ConfigureFromEnv(&env_err)) {
    fprintf(stderr, "%s: bad CONFCC_INJECT_FAULTS: %s\n", tool,
            env_err.c_str());
    return 2;
  }
  int rc;
  try {
    rc = body(argc, argv);
  } catch (const std::exception& e) {
    fprintf(stderr, "%s: fatal: %s\n", tool, e.what());
    rc = 1;
  } catch (...) {
    fprintf(stderr, "%s: fatal: unknown error\n", tool);
    rc = 1;
  }
  if (!g_inject_report.empty() &&
      !WriteSink(g_inject_report, FaultInjector::Instance().ReportJson().Dump(),
                 report_what)) {
    rc = rc == 0 ? 1 : rc;
  }
  return rc;
}

}  // namespace confllvm::cli

#endif  // CONFLLVM_TOOLS_CLI_H_

// Span recorder of the traced benchmark build.
//
// span_wrap.cc defines a __wrap_ function for each layer entry point named
// in its SYM_ macros; CMakeLists.txt links perfbench_campaign_traced with
// -Wl,--wrap for the same symbols, so every call into a layer that crosses
// object files opens a Span, calls the real function and closes the Span.
// Spans stay in memory until write_spans().
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

/// One span from construction to destruction.  Its parent is the innermost
/// span still open on the same thread.  `name` must outlive the process's
/// last write_spans() call; the wrappers pass string literals.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Up to three numbers that describe the call (span_wrap.cc lists what
  /// each span name stores).
  void set(double a, double b = 0.0, double c = 0.0);

 private:
  std::size_t index_;
  double attrs_[3] = {0.0, 0.0, 0.0};
};

/// Writes every span recorded by this process, one line each:
/// `name parent start_ns end_ns a b c`, where parent is the line index of
/// the parent span (-1 for none).  Returns false when the file cannot be
/// written or a span is still open.
[[nodiscard]] bool write_spans(const std::string& path);

}  // namespace perfbench

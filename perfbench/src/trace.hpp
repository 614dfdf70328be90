/// \file
/// In-memory spans recorded by the benchmark around its calls into each
/// layer, written out at the end as Chrome trace-event JSON.
///
/// A span is either measured here, around a call into the library
/// ("outside"), or reported by the library itself and placed on the
/// timeline by the benchmark ("program": FlowTelemetry stage walls and
/// the served queue/exec split). A disabled tracer records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// One recorded span. Times are seconds on now_s()'s clock.
struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t id = 0;       ///< 1-based, unique in the tracer
    std::int64_t parent = 0;   ///< 0 = root
    std::int64_t request = 0;  ///< spans of one request share this id
    bool program = false;      ///< reported by the library, not measured here

    [[nodiscard]] double ms() const { return (end_s - start_s) * 1e3; }
};

/// Thread-safe span recorder.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Record a finished span; returns its id (0 when disabled).
    std::int64_t add(std::string name, double start_s, double end_s, std::int64_t parent,
                     std::int64_t request, bool program = false);
    /// Hand out a span id now and record the span later with record().
    [[nodiscard]] std::int64_t reserve();
    /// Record a span whose id came from reserve().
    void record(Span s);

    /// Snapshot of every span recorded so far.
    [[nodiscard]] std::vector<Span> spans() const;

    /// Write the spans as a Chrome trace-event JSON document.
    void write_chrome(const std::string& path) const;

private:
    bool enabled_;
    mutable std::mutex mu_;
    std::int64_t next_id_ = 1;
    std::vector<Span> spans_;
};

/// RAII span measured around a call: opens at construction, records at
/// destruction (or at close()). No-op on a disabled tracer.
class Scope {
public:
    Scope(Tracer& t, std::string name, std::int64_t parent, std::int64_t request);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// The id children should name as their parent. Reserved at open so
    /// children recorded before this span closes can point at it.
    [[nodiscard]] std::int64_t id() const noexcept { return id_; }
    /// Record now instead of at destruction; returns the span's duration.
    double close();

private:
    Tracer& t_;
    std::string name_;
    std::int64_t parent_;
    std::int64_t request_;
    std::int64_t id_ = 0;
    double start_s_;
    bool open_ = true;
};

/// Self time per span name, summed: each span's duration minus the part
/// of its interval covered by its children.
[[nodiscard]] std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans);

/// Share of `parent`'s duration covered by the union of its direct
/// children's intervals (0..1).
[[nodiscard]] double explained_share(const Span& parent, const std::vector<Span>& spans);

}  // namespace perfbench

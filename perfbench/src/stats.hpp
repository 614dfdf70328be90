/// \file
/// Pure measurement rules shared by every workload: percentiles and the
/// tail rule, open-loop timing from the due time, and failure accounting.
/// Kept free of I/O and of the afpga library so the benchmark's own tests
/// pin these rules directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One order statistic: its value, the percentile it sits at, and how many
/// samples lie beyond it.
struct Quantile {
    double value = 0.0;
    double pct = 0.0;        ///< percentile (0..100)
    std::size_t n = 0;       ///< samples the statistic was taken from
    std::size_t beyond = 0;  ///< samples strictly after its rank
};

/// Nearest-rank percentile of `samples` (unsorted; copied). Rank
/// k = ceil(pct/100 * n), clamped to [1, n]; empty input gives a zero value.
[[nodiscard]] inline Quantile percentile(std::vector<double> samples, double pct) {
    Quantile q;
    q.pct = pct;
    q.n = samples.size();
    if (samples.empty()) return q;
    std::sort(samples.begin(), samples.end());
    const double exact = pct / 100.0 * static_cast<double>(samples.size());
    auto k = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    k = std::clamp<std::size_t>(k, 1, samples.size());
    q.value = samples[k - 1];
    q.beyond = samples.size() - k;
    return q;
}

/// The percentiles the tail is chosen from, highest last.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};

/// The tail: the highest percentile of kTailLadder that still has at least
/// `min_beyond` samples beyond it. With too few samples for any of them the
/// median is returned; its `beyond` then shows the shortfall.
[[nodiscard]] inline Quantile tail(const std::vector<double>& samples,
                                   std::size_t min_beyond = 10) {
    Quantile best = percentile(samples, kTailLadder[0]);
    for (double p : kTailLadder) {
        const Quantile q = percentile(samples, p);
        if (q.beyond >= min_beyond) best = q;
    }
    return best;
}

/// Open-loop schedule at a fixed offered rate: request i is due at
/// start + i / rate seconds.
struct OpenLoopSchedule {
    double start_s = 0.0;
    double rate_per_s = 1.0;
    [[nodiscard]] double due(std::size_t i) const {
        return start_s + static_cast<double>(i) / rate_per_s;
    }
};

/// Timestamps of one open-loop request, all in seconds on one clock.
struct OpenLoopSample {
    double due_s = 0.0;    ///< when the schedule wanted it sent
    double start_s = 0.0;  ///< when the generator actually sent it
    double done_s = 0.0;   ///< when its verified result was in hand
    bool ok = false;       ///< result arrived and verified
};

/// Latency of one request, measured from the due time so that a stall
/// also charges the requests queued behind it.
[[nodiscard]] inline double latency_ms(const OpenLoopSample& s) {
    return (s.done_s - s.due_s) * 1e3;
}
/// How late the generator sent the request (never negative).
[[nodiscard]] inline double lateness_ms(const OpenLoopSample& s) {
    return std::max(0.0, (s.start_s - s.due_s) * 1e3);
}

/// Operation accounting behind `attempted`, `failed` and `fail_ratio`. A
/// flow error, a refused submit, a corrupt blob and a wrong token all land
/// in fail(); only the first few reasons are kept for the report.
class Tally {
public:
    void ok() { ++attempted_; }
    void fail(const std::string& design, std::uint64_t seed, const std::string& why) {
        ++attempted_;
        ++failed_;
        if (reasons_.size() < kMaxReasons)
            reasons_.push_back(design + " seed=" + std::to_string(seed) + ": " + why);
    }
    void merge(const Tally& o) {
        attempted_ += o.attempted_;
        failed_ += o.failed_;
        for (const auto& r : o.reasons_)
            if (reasons_.size() < kMaxReasons) reasons_.push_back(r);
    }
    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] double fail_ratio() const noexcept {
        return attempted_ == 0 ? 0.0
                               : static_cast<double>(failed_) / static_cast<double>(attempted_);
    }
    [[nodiscard]] const std::vector<std::string>& reasons() const noexcept { return reasons_; }

private:
    static constexpr std::size_t kMaxReasons = 16;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

}  // namespace perfbench

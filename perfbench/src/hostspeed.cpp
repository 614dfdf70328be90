#include "hostspeed.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kGridCells = std::size_t{1} << 18;  // 1 MiB of int32
constexpr std::size_t kNets = 20000;                      // four pins each
constexpr int kMoves = 300000;
constexpr std::size_t kKeys = 60000;
}  // namespace

HostSpeed::HostSpeed() : grid_(kGridCells), nets_(4 * kNets), keys_(kKeys) {}

std::uint64_t HostSpeed::kernel() {
    std::mt19937_64 rng(42);
    for (auto& g : grid_) g = static_cast<std::int32_t>(rng() & 1023);
    for (auto& p : nets_) p = static_cast<std::uint32_t>(rng() % kGridCells);
    std::uint64_t sum = 0;
    // Bounding-box spans of random nets with occasional swaps, as an
    // annealing placer evaluates and applies moves.
    for (int m = 0; m < kMoves; ++m) {
        const std::uint32_t* pin = &nets_[4 * (rng() % kNets)];
        const auto [lo, hi] = std::minmax(
            {grid_[pin[0]], grid_[pin[1]], grid_[pin[2]], grid_[pin[3]]});
        sum += static_cast<std::uint64_t>(hi - lo);
        if ((m & 3) == 0) std::swap(grid_[pin[0]], grid_[rng() % kGridCells]);
    }
    std::unordered_map<std::uint32_t, std::uint32_t> map;
    for (std::size_t i = 0; i < kKeys; ++i) map[static_cast<std::uint32_t>(rng())] += 1;
    for (std::size_t i = 0; i < kKeys; ++i) sum += map.count(static_cast<std::uint32_t>(rng()));
    for (auto& k : keys_) k = rng();
    std::sort(keys_.begin(), keys_.end());
    return sum ^ keys_[kKeys / 2];
}

void HostSpeed::sample(int n) {
    for (int i = 0; i < n; ++i) {
        const double t0 = now_s();
        const std::uint64_t c = kernel();
        ms_.push_back((now_s() - t0) * 1e3);
        if (ms_.size() == 1) checksum_ = c;
        else if (c != checksum_) throw std::logic_error("host-speed kernel is not deterministic");
    }
}

double HostSpeed::median_ms() const { return percentile(ms_, 50.0).value; }

double HostSpeed::factor() const { return ms_.empty() ? 1.0 : median_ms() / kReferenceMs; }

}  // namespace perfbench

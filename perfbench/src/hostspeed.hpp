/// \file
/// Host-speed reference for the end-to-end timings.
///
/// The benchmark shares its cores with other machines' work, and the speed
/// of a core drifts by up to 1.6x over tens of seconds as that work comes
/// and goes (cache and memory contention more than clock speed). A run of
/// 45 s often sits inside one such phase, so two runs of the same code can
/// read 30% apart. HostSpeed times a fixed reference kernel, owned by the
/// benchmark and untouched by the program, at quiet points of a run (no
/// program work in flight) and scales the run's host times to the speed at
/// which that kernel takes kReferenceMs. The kernel does what the placer
/// and router do to memory — random reads and swaps over a megabyte-sized
/// grid, hash-map inserts and lookups, a sort — so it slows with them.
/// A program change moves the scaled times exactly as it moves the raw
/// ones, because it cannot change the kernel; the raw figures are kept in
/// the detail line.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
public:
    /// The kernel's typical median time on the 4-core reference host: the
    /// speed every scaled time is expressed at.
    static constexpr double kReferenceMs = 32.0;

    HostSpeed();

    /// Time the kernel `n` times. Throws std::logic_error if its result
    /// ever differs from the first call's (the kernel is deterministic).
    void sample(int n = 1);
    /// Median kernel time over kReferenceMs: above 1 means the host ran
    /// slower than the reference. 1 before any sample.
    [[nodiscard]] double factor() const;
    [[nodiscard]] double median_ms() const;
    [[nodiscard]] std::size_t samples() const { return ms_.size(); }

    /// One run of the kernel; returns its checksum.
    [[nodiscard]] std::uint64_t kernel();

private:
    std::vector<std::int32_t> grid_;
    std::vector<std::uint32_t> nets_;
    std::vector<std::uint64_t> keys_;
    std::vector<double> ms_;
    std::uint64_t checksum_ = 0;
};

}  // namespace perfbench

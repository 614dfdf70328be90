/// \file
/// The benchmark's three workloads and what they report. Each one drives
/// the library only through its public API, with default FlowOptions (only
/// `seed` set), and checks every output against a behavioural model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cad/flow_client.hpp"
#include "core/archspec.hpp"
#include "core/rrgraph.hpp"
#include "designs.hpp"
#include "stats.hpp"

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
    std::string workload;     ///< compile_adder24 | served_styles | sim_stream
    std::uint64_t seed = 1;   ///< workload seed: every input derives from it
    double seconds = 10.0;    ///< measured time of the run
    bool trace = false;       ///< traced run: per-layer metrics instead of end-to-end
    bool smoke = false;       ///< tiny designs and fabric, for the self-tests
    unsigned threads = 1;     ///< pinned pool size (AFPGA_THREADS)
    std::string trace_file;   ///< Chrome trace output of a traced run (empty = none)
    std::string socket_path;  ///< Unix socket of the in-process server
};

/// One reported metric.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything a run prints.
struct RunReport {
    Tally tally;
    std::vector<Metric> metrics;  ///< the final line: end-to-end or per-layer
    /// Supporting figures for the detail line: percentile ranks and sample
    /// counts, self time per layer, served-only splits, provenance.
    std::map<std::string, double> detail;
    std::map<std::string, std::string> info;
};

/// Run one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] RunReport run_workload(const RunOptions& opts);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// One served compile of `d` with default options and `seed` over
/// `client`, checked post-route (elaborated on `rr`) against the model —
/// the path every served_styles request takes. The outcome lands in
/// `tally`; a refused submit counts as a failure. True on a verified result.
bool serve_once(afpga::cad::FlowClient& client, const Design& d, const afpga::core::ArchSpec& arch,
                const afpga::core::RRGraph& rr, std::uint64_t seed, Tally& tally);

/// The value of `"key":` inside the stage object `"stage":"<stage>"` of a
/// FlowTelemetry JSON document; nullopt-like NaN when absent.
[[nodiscard]] double telemetry_value(const std::string& json, const std::string& stage,
                                     const std::string& key);

}  // namespace perfbench

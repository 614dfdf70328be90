// perfbench: run one workload of the repository benchmark and print its
// metrics. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--socket <path>] [--commit <id>] [--smoke]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries the
// supporting detail (percentile ranks, sample counts, self time per layer,
// provenance). Exit code 0 unless the run could not be carried out.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "base/json.hpp"
#include "base/threadpool.hpp"
#include "workloads.hpp"

namespace {

using afpga::base::JsonWriter;

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-file <path>] [--socket <path>] [--commit <id>] "
                 "[--smoke]\n",
                 why.c_str());
    std::exit(2);
}

unsigned nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions o;
    std::string commit = "unknown";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value after " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = next();
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(next());
            } else if (a == "--seconds") {
                o.seconds = std::stod(next());
            } else if (a == "--trace") {
                const std::string v = next();
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (a == "--trace-file") {
                o.trace_file = next();
            } else if (a == "--socket") {
                o.socket_path = next();
            } else if (a == "--commit") {
                commit = next();
            } else if (a == "--smoke") {
                o.smoke = true;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + a);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(o.seconds > 0)) usage("--seconds must be positive");
    if (o.socket_path.empty()) o.socket_path = "perfbench-" + std::to_string(getpid()) + ".sock";

    // Pin every pool to at most nproc (and at most 4) workers; the library
    // reads AFPGA_THREADS for any pool left at its default size.
    const unsigned cpus = nproc();
    if (!std::getenv("AFPGA_THREADS")) {
        const std::string v = std::to_string(std::min(cpus, 4u));
        setenv("AFPGA_THREADS", v.c_str(), 1);
    }
    o.threads = static_cast<unsigned>(afpga::base::ThreadPool::default_workers());
    if (o.threads > cpus) o.threads = cpus;

    perfbench::RunReport rep;
    try {
        rep = perfbench::run_workload(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (const auto& r : rep.tally.reasons()) std::fprintf(stderr, "perfbench: FAILED %s\n", r.c_str());

    JsonWriter d;
    d.begin_object();
    d.key("workload").value(o.workload);
    d.key("mode").value(o.trace ? "traced" : "untraced");
    d.key("provenance").begin_object();
    d.key("seed").value(static_cast<std::uint64_t>(o.seed));
    d.key("seconds").value(o.seconds);
    d.key("nproc").value(static_cast<std::uint64_t>(cpus));
    d.key("hardware_concurrency").value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    d.key("AFPGA_THREADS").value(std::getenv("AFPGA_THREADS"));
    d.key("pool_threads").value(static_cast<std::uint64_t>(o.threads));
    d.key("build_type").value(PERFBENCH_BUILD_TYPE);
    d.key("commit").value(commit);
    d.key("smoke").value(o.smoke);
    for (const auto& [k, v] : rep.info) d.key(k).value(v);
    d.end_object();
    d.key("fail_ratio").value(rep.tally.fail_ratio());
    d.key("failures").begin_array();
    for (const auto& r : rep.tally.reasons()) d.value(r);
    d.end_array();
    d.key("detail").begin_object();
    for (const auto& [k, v] : rep.detail) d.key(k).value(v);
    d.end_object();
    d.end_object();
    std::printf("%s\n", d.str().c_str());

    JsonWriter w;
    w.begin_object();
    w.key("correct").value(rep.tally.failed() == 0 && rep.tally.attempted() > 0);
    w.key("attempted").value(static_cast<std::uint64_t>(rep.tally.attempted()));
    w.key("failed").value(static_cast<std::uint64_t>(rep.tally.failed()));
    w.key("metrics").begin_object();
    for (const auto& m : rep.metrics) {
        w.key(m.name).begin_object();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

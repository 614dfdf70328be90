#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <latch>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "base/threadpool.hpp"
#include "cad/flow.hpp"
#include "cad/flow_client.hpp"
#include "cad/flow_server.hpp"
#include "core/elaborate.hpp"
#include "core/rrgraph.hpp"
#include "designs.hpp"
#include "hostspeed.hpp"
#include "openloop.hpp"
#include "trace.hpp"

namespace perfbench {

namespace cad = afpga::cad;
namespace core = afpga::core;

namespace {

// --- workload shape --------------------------------------------------------
// Every set-up runs this many times; setup_s is their median.
constexpr int kSetupReps = 5;
// Tokens checked per compile (compile_adder24, served_styles) and per
// design per stream job (sim_stream).
constexpr std::size_t kCompileTokens = 16;
constexpr std::size_t kServedTokens = 8;
constexpr std::size_t kStreamTokens = 32;
// Every phase does a fixed amount of work, sized from --seconds by the
// nominal rate each workload reached on the 4-core reference machine, so
// sample counts (and with them the tail percentile) do not drift with
// speed: compile_adder24 compiles, sim_stream stream jobs (each over all
// twelve implementations), and the served saturation phase's jobs.
constexpr double kCompileNominalS = 0.75;
constexpr double kStreamNominalPerS = 7.5;
constexpr double kSaturationNominalPerS = 38.0;
// served_styles: offered rate of the open loop (about a third of the
// saturation throughput, so latency is mostly service time), the share of
// the run spent there, and the share of requests (3 in 10) that re-submit
// an earlier design with one downstream knob changed.
constexpr double kServedRatePerS = 12.0;
constexpr double kOpenLoopShare = 0.6;
constexpr std::size_t kBlock = 10;
constexpr std::size_t kVariantsPerBlock = 3;
constexpr double kPdeMargins[] = {1.25, 1.5};
constexpr double kAstarFacs[] = {1.2, 1.5};
// Client connections (one per client thread): enough that the open loop
// never waits for a free one at the offered rate.
constexpr unsigned kOpenLoopClients = 8;
// Host-speed samples (HostSpeed, about 30 ms each) are taken with no
// program work in flight: after every compile_adder24 compile, after every
// fourth sim_stream job, and in blocks after set-up and between the chunks
// the served phases are cut into, so that a slow phase of the host inside
// a run is seen.
constexpr int kHostBlock = 6;
constexpr std::size_t kServedChunks = 6;

/// Per-layer samples, keyed by metric name. Thread-safe.
class Layers {
public:
    void add(const std::string& k, double v) {
        std::lock_guard<std::mutex> lock(mu_);
        v_[k].push_back(v);
    }
    [[nodiscard]] double median(const std::string& k) const {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = v_.find(k);
        return it == v_.end() ? 0.0 : percentile(it->second, 50.0).value;
    }
    [[nodiscard]] std::size_t count(const std::string& k) const {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = v_.find(k);
        return it == v_.end() ? 0 : it->second.size();
    }
    [[nodiscard]] double sum(const std::string& k) const {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = v_.find(k);
        double s = 0.0;
        if (it != v_.end())
            for (double x : it->second) s += x;
        return s;
    }

private:
    mutable std::mutex mu_;
    std::map<std::string, std::vector<double>> v_;
};

/// Every per-layer metric of a traced run, with its unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"techmap.ms", "ms"},
        {"pack.ms", "ms"},
        {"pack.clusters", "count"},
        {"place.ms", "ms"},
        {"place.moves", "count"},
        {"place.cost", "cost"},
        {"rrgraph.ms", "ms"},
        {"rrgraph.nodes", "count"},
        {"route.ms", "ms"},
        {"route.iterations", "count"},
        {"route.nets_rerouted", "count"},
        {"route.heap_pops", "count"},
        {"route.nodes_expanded", "count"},
        {"bitstream.ms", "ms"},
        {"bitstream.switches_on", "count"},
        {"flow.other_ms", "ms"},
        {"elaborate.ms", "ms"},
        {"sim.ms", "ms"},
        {"sim.events", "count"},
        {"sim.events_per_token", "events/token"},
        {"gen.late_ms", "ms"},
        {"server.busy_rejects", "count"},
        {"artifact.hits", "count"},
        {"artifact.misses", "count"},
        {"artifact.hit_ratio", "ratio"},
        {"rrgraph.memo_hits", "count"},
        {"trace.overhead_pct", "%"},
        {"trace.explained_share", "ratio"},
    };
    return m;
}

/// Served-only splits: reported in the detail line of served_styles.
const std::vector<std::string>& served_split_metrics() {
    static const std::vector<std::string> m = {"service.queue_ms", "service.exec_ms",
                                               "server.wire_ms"};
    return m;
}

core::ArchSpec fabric(bool smoke) {
    core::ArchSpec a;
    a.width = smoke ? 12 : 24;
    a.height = smoke ? 12 : 24;
    a.channel_width = smoke ? 12 : 16;
    return a;
}

// --- verification ------------------------------------------------------------

/// Outcome of checking one implementation against its behavioural model.
struct Check {
    std::string why;  ///< empty = every token matched
    double period_ps = 0.0;
    std::uint64_t events = 0;
    double host_ms = 0.0;  ///< elaborate + delays + simulation
};

/// Elaborate `bits` back into a netlist, apply the routed wire delays and
/// stream `tokens` through it, checking each against the model.
Check verify(const Design& d, const core::RRGraph& rr, const core::Bitstream& bits,
             const std::unordered_map<std::uint32_t, std::string>& pads,
             const std::vector<std::uint64_t>& tokens, Tracer& tr, std::int64_t parent,
             std::int64_t req, Layers* layers) {
    Check c;
    try {
        Scope se(tr, "core.elaborate", parent, req);
        const core::ElaboratedDesign ed = core::elaborate(rr, bits, pads);
        const double elab_ms = se.close();
        Scope sd(tr, "core.resolve_wire_delays", parent, req);
        const auto delays = core::resolve_wire_delays(ed);
        const double delay_ms = sd.close();
        Scope ss(tr, "sim.run", parent, req);
        sim::Simulator s(ed.nl);
        for (const auto& w : delays) s.set_sink_delay(w.net, w.sink_idx, w.delay_ps);
        s.run();
        const TokenRun run = stream_tokens(d, s, ed.nl, tokens);
        const double sim_ms = ss.close();
        c.why = check_tokens(d, tokens, run);
        c.period_ps = run.period_ps;
        c.events = s.total_events();
        c.host_ms = elab_ms + delay_ms + sim_ms;
        if (layers) {
            layers->add("req.elaborate.ms", elab_ms);
            layers->add("req.sim.ms", sim_ms);
            layers->add("req.sim.events", static_cast<double>(c.events));
            layers->add("req.tokens", static_cast<double>(tokens.size()));
        }
    } catch (const std::exception& e) {
        c.why = std::string("post-route check threw: ") + e.what();
    }
    return c;
}

/// Per-design quality of implemented designs: mean routed wirelength and
/// mean simulated token period, each summed over the designs.
class Quality {
public:
    void add(const std::string& design, double wirelength, double period_ps) {
        std::lock_guard<std::mutex> lock(mu_);
        auto& q = by_design_[design];
        q.wl += wirelength;
        q.period += period_ps;
        ++q.n;
    }
    [[nodiscard]] double wirelength() const { return total(&Acc::wl); }
    [[nodiscard]] double cycle_ps() const { return total(&Acc::period); }

private:
    struct Acc {
        double wl = 0.0;
        double period = 0.0;
        std::size_t n = 0;
    };
    double total(double Acc::*field) const {
        std::lock_guard<std::mutex> lock(mu_);
        double s = 0.0;
        for (const auto& [name, q] : by_design_)
            if (q.n) s += q.*field / static_cast<double>(q.n);
        return s;
    }
    mutable std::mutex mu_;
    std::map<std::string, Acc> by_design_;
};

// --- compiles ------------------------------------------------------------------

const char* const kStages[] = {"techmap", "pack", "place", "route", "bitstream"};

/// Record the library-reported layer figures of one compile from its
/// FlowTelemetry JSON. `upstream` adds techmap/pack/place too (served jobs,
/// whose stages the benchmark cannot call from outside). A stage restored
/// from the artifact cache reports the wall of its restore, as the job
/// experienced it; artifact.hits counts how often that happened.
void record_program_layers(Layers& L, const std::string& tj, double flow_ms, bool upstream) {
    double stage_sum = 0.0;
    for (const char* st : kStages) {
        const double wall = telemetry_value(tj, st, "wall_ms");
        if (std::isnan(wall)) continue;
        stage_sum += wall;
        const std::string s = st;
        if (s == "route") {
            L.add("route.ms", wall);
            L.add("route.iterations", telemetry_value(tj, st, "iterations"));
            L.add("route.nets_rerouted", telemetry_value(tj, st, "nets_rerouted"));
            L.add("route.heap_pops", telemetry_value(tj, st, "kernel_heap_pops"));
            L.add("route.nodes_expanded", telemetry_value(tj, st, "kernel_nodes_expanded"));
        } else if (s == "bitstream") {
            L.add("bitstream.ms", wall);
            L.add("bitstream.switches_on", telemetry_value(tj, st, "switches_on"));
        } else if (upstream) {
            L.add(s + ".ms", wall);
            if (s == "pack") L.add("pack.clusters", telemetry_value(tj, st, "clusters"));
            if (s == "place") {
                L.add("place.moves", telemetry_value(tj, st, "moves_tried"));
                L.add("place.cost", telemetry_value(tj, st, "final_cost"));
            }
        }
    }
    L.add("flow.other_ms", flow_ms - stage_sum);
}

/// Lay the telemetry stage walls on the timeline under `parent`, back to
/// back from `start_s`, marked as reported by the library.
void add_stage_spans(Tracer& tr, const std::string& tj, double start_s, std::int64_t parent,
                     std::int64_t req) {
    if (!tr.enabled()) return;
    double t = start_s;
    for (const char* st : kStages) {
        const double wall = telemetry_value(tj, st, "wall_ms");
        if (std::isnan(wall)) continue;
        const std::int64_t id =
            tr.add(std::string("cad.") + st, t, t + wall / 1e3, parent, req, true);
        const double rr_ms = telemetry_value(tj, st, "rr_build_ms");
        if (!std::isnan(rr_ms)) tr.add("core.rrgraph", t, t + rr_ms / 1e3, id, req, true);
        t += wall / 1e3;
    }
}

struct Compiled {
    cad::FlowResult fr;
    std::uint64_t seed = 0;
    double flow_ms = 0.0;
};

/// One cold run_flow with default options and `seed`, as a user calls it.
Compiled compile(const Design& d, const core::ArchSpec& arch, std::uint64_t seed, Tracer& tr,
                 std::int64_t req, Layers* layers) {
    cad::FlowOptions o;
    o.seed = seed;
    Scope s(tr, "cad.flow", 0, req);
    const double t0 = now_s();
    Compiled c{cad::run_flow(d.nl, d.hints, arch, o), seed, 0.0};
    c.flow_ms = s.close();
    if (tr.enabled()) {
        const std::string tj = c.fr.telemetry.to_json();
        add_stage_spans(tr, tj, t0, s.id(), req);
        if (layers) record_program_layers(*layers, tj, c.flow_ms, false);
    }
    return c;
}

/// Traced runs only: call the stages that have a public entry taking the
/// previous stage's product (techmap, pack, place, RR graph) from outside,
/// with the options run_flow used, and check that placement agrees with
/// the flow's own.
void attribute(const Design& d, const core::ArchSpec& arch, std::uint64_t seed,
               const cad::FlowResult& fr, Tracer& tr, std::int64_t req, Layers& L, Tally& tally) {
    const cad::FlowOptions o;
    Scope root(tr, "attribution", 0, req);
    Scope st(tr, "cad.techmap", root.id(), req);
    const cad::MappedDesign md = cad::techmap(d.nl, d.hints, o.techmap);
    if (o.verify_mapping) cad::verify_mapping(d.nl, md);
    L.add("techmap.ms", st.close());
    Scope sp(tr, "cad.pack", root.id(), req);
    const cad::PackedDesign pd = cad::pack(md, arch, o.pack);
    L.add("pack.ms", sp.close());
    L.add("pack.clusters", static_cast<double>(pd.clusters.size()));
    cad::PlaceOptions po = o.place;
    po.seed = seed;
    Scope sl(tr, "cad.place", root.id(), req);
    const cad::Placement pl = cad::place(pd, md, arch, po);
    L.add("place.ms", sl.close());
    L.add("place.moves", static_cast<double>(pl.moves_tried));
    L.add("place.cost", pl.final_cost);
    if (pl.final_cost != fr.placement.final_cost)
        tally.fail(d.name, seed, "placement called directly disagrees with run_flow's");
    Scope sr(tr, "core.rrgraph", root.id(), req);
    std::unique_ptr<core::RRGraph> rr;
    if (o.route.threads >= 1) {
        afpga::base::ThreadPool pool(o.route.threads);
        rr = std::make_unique<core::RRGraph>(arch, pool);
    } else {
        rr = std::make_unique<core::RRGraph>(arch);
    }
    L.add("rrgraph.ms", sr.close());
    L.add("rrgraph.nodes", static_cast<double>(rr->num_nodes()));
}

// --- reporting ------------------------------------------------------------------

struct EndToEnd {
    std::vector<double> setup_s;
    std::vector<double> latency_ms;
    double jobs_per_s = 0.0;
    double tokens = 0.0;
    double token_host_ms = 0.0;
    Quality quality;
    HostSpeed host;
};

/// The end-to-end metrics. Host times and rates are scaled to the
/// reference host speed by the run's HostSpeed factor; the raw figures go
/// to the detail line.
void report_end_to_end(RunReport& rep, const EndToEnd& e) {
    const Quantile p50 = percentile(e.latency_ms, 50.0);
    const Quantile tl = tail(e.latency_ms);
    const std::vector<Metric> host_time = {
        {"setup_s", percentile(e.setup_s, 50.0).value, "s"},
        {"latency_ms.p50", p50.value, "ms"},
        {"latency_ms.tail", tl.value, "ms"},
    };
    const std::vector<Metric> host_rate = {
        {"jobs_per_s", e.jobs_per_s, "1/s"},
        {"sim_tokens_per_s", e.token_host_ms > 0 ? e.tokens / (e.token_host_ms / 1e3) : 0.0,
         "1/s"},
    };
    const double f = e.host.factor();
    rep.metrics.clear();
    for (const Metric& m : host_time) {
        rep.metrics.push_back({m.name, m.value / f, m.unit});
        rep.detail["raw." + m.name] = m.value;
    }
    for (const Metric& m : host_rate) {
        rep.metrics.push_back({m.name, m.value * f, m.unit});
        rep.detail["raw." + m.name] = m.value;
    }
    rep.metrics.push_back({"wirelength", e.quality.wirelength(), "count"});
    rep.metrics.push_back({"cycle_ps", e.quality.cycle_ps(), "ps"});
    rep.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    rep.detail["host.factor"] = f;
    rep.detail["host.kernel_ms.p50"] = e.host.median_ms();
    rep.detail["host.samples"] = static_cast<double>(e.host.samples());
    rep.detail["setup.samples"] = static_cast<double>(e.setup_s.size());
    rep.detail["latency.samples"] = static_cast<double>(p50.n);
    rep.detail["latency.p50.samples_beyond"] = static_cast<double>(p50.beyond);
    rep.detail["latency.tail.percentile"] = tl.pct;
    rep.detail["latency.tail.samples_beyond"] = static_cast<double>(tl.beyond);
    rep.detail["sim.tokens"] = e.tokens;
}

/// Fill the per-layer metrics of a traced run. `root` names the span that
/// stands for one request's latency; `overhead_pct` compares the traced
/// and untraced halves of the run.
void report_per_layer(RunReport& rep, Layers& L, const Tracer& tr, const std::string& root,
                      double overhead_pct, const std::string& trace_file) {
    const auto spans = tr.spans();
    if (!trace_file.empty()) tr.write_chrome(trace_file);
    rep.metrics.clear();
    std::vector<Span> roots;
    for (const Span& s : spans)
        if (s.name == root) roots.push_back(s);
    double share = 0.0;
    if (!roots.empty()) {
        std::sort(roots.begin(), roots.end(),
                  [](const Span& a, const Span& b) { return a.ms() < b.ms(); });
        share = explained_share(roots[(roots.size() - 1) / 2], spans);
    }
    const double tokens = L.sum("req.tokens");
    for (const auto& [name, unit] : per_layer_metrics()) {
        // elaborate/sim figures are per request (summed over its checks).
        const bool per_request = name == "elaborate.ms" || name == "sim.ms" || name == "sim.events";
        const std::string key = per_request ? "req." + name : name;
        double v = 0.0;
        if (name == "sim.events_per_token") v = tokens > 0 ? L.sum("req.sim.events") / tokens : 0.0;
        else if (name == "trace.overhead_pct") v = overhead_pct;
        else if (name == "trace.explained_share") v = share;
        else v = L.median(key);
        rep.metrics.push_back({name, v, unit});
        if (L.count(key) > 0) rep.detail["samples." + name] = static_cast<double>(L.count(key));
    }
    for (const auto& [name, ms] : self_ms_by_name(spans)) rep.detail["self_ms." + name] = ms;
    rep.detail["trace.spans"] = static_cast<double>(spans.size());
    rep.detail["trace.root_spans"] = static_cast<double>(roots.size());
}

/// Requests per second of a one-caller closed loop: count over busy time.
double closed_loop_rate(const std::vector<double>& latency_ms) {
    double total_ms = 0.0;
    for (double x : latency_ms) total_ms += x;
    return total_ms > 0 ? static_cast<double>(latency_ms.size()) / (total_ms / 1e3) : 0.0;
}

std::string join(const std::vector<std::string>& names) {
    std::string list;
    for (const auto& n : names) list += (list.empty() ? "" : ",") + n;
    return list;
}

double overhead_pct(const std::vector<double>& untraced, const std::vector<double>& traced) {
    const double a = percentile(untraced, 50.0).value;
    const double b = percentile(traced, 50.0).value;
    return a > 0.0 ? (b - a) / a * 100.0 : 0.0;
}

/// The fixed request count of a phase of `secs` at a nominal rate.
std::size_t count_for(double secs, double per_s) {
    return static_cast<std::size_t>(std::max(2.0, std::round(secs * per_s)));
}

/// Run `body(traced, seconds)` once untraced for the whole run, or, in a
/// traced run, once untraced and once traced for half the time each.
template <typename Body>
void phases(const RunOptions& o, Body body) {
    if (!o.trace) {
        body(false, o.seconds);
    } else {
        body(false, o.seconds / 2);
        body(true, o.seconds / 2);
    }
}

// --- compile_adder24 ---------------------------------------------------------------

RunReport compile_adder24(const RunOptions& o) {
    RunReport rep;
    Tracer tr(o.trace);
    Tracer off(false);
    Layers L;
    EndToEnd e;
    std::mt19937_64 rng(o.seed);
    const core::ArchSpec arch = fabric(o.smoke);
    const std::string name = o.smoke ? "qdi_add4" : "qdi_add24";

    // Set-up: generate the design and run one warm-up compile and check,
    // so lazy one-time costs land here rather than in the first request.
    // Each repetition compiles at its own seed, so setup_s, their median,
    // does not hang on how long one placement seed happens to take.
    std::unique_ptr<Design> d;
    for (int r = 0; r < (o.smoke ? 1 : kSetupReps); ++r) {
        const std::uint64_t warm_seed = rng();
        const double t0 = now_s();
        d = make_design(name);
        try {
            const Compiled c = compile(*d, arch, warm_seed, off, 0, nullptr);
            std::mt19937_64 trng(warm_seed);
            const Check k = verify(*d, *c.fr.rr, *c.fr.bits, c.fr.pad_names,
                                   draw_tokens(*d, trng, kCompileTokens), off, 0, 0, nullptr);
            if (k.why.empty()) rep.tally.ok();
            else rep.tally.fail(name, warm_seed, k.why);
        } catch (const std::exception& ex) {
            rep.tally.fail(name, warm_seed, ex.what());
        }
        e.setup_s.push_back(now_s() - t0);
    }
    e.host.sample(kHostBlock);

    std::vector<double> lat[2];
    std::int64_t req = 0;
    phases(o, [&](bool traced, double secs) {
        Tracer& t = traced ? tr : off;
        // A traced compile is attributed by calling its stages a second
        // time, so the traced half runs half as many to keep its length.
        const std::size_t n = count_for(traced ? secs / 2 : secs, 1.0 / kCompileNominalS);
        double prev_done = now_s();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t seed = rng();
            ++req;
            if (traced) L.add("gen.late_ms", (now_s() - prev_done) * 1e3);
            try {
                const Compiled c = compile(*d, arch, seed, t, req, traced ? &L : nullptr);
                prev_done = now_s();
                lat[traced].push_back(c.flow_ms);
                std::mt19937_64 trng(seed);
                const auto tokens = draw_tokens(*d, trng, kCompileTokens);
                const std::int64_t vid = t.reserve();
                const double v0 = now_s();
                const Check k = verify(*d, *c.fr.rr, *c.fr.bits, c.fr.pad_names, tokens, t, vid,
                                       req, traced ? &L : nullptr);
                if (t.enabled()) t.record(Span{"verify", v0, now_s(), vid, 0, req, false});
                if (traced) attribute(*d, arch, seed, c.fr, t, req, L, rep.tally);
                if (!k.why.empty()) {
                    rep.tally.fail(name, seed, k.why);
                } else {
                    rep.tally.ok();
                    e.tokens += static_cast<double>(tokens.size());
                    e.token_host_ms += k.host_ms;
                    e.quality.add(name, static_cast<double>(c.fr.routing.wirelength),
                                  k.period_ps);
                }
            } catch (const std::exception& ex) {
                rep.tally.fail(name, seed, ex.what());
                prev_done = now_s();
            }
            e.host.sample();
        }
    });

    if (!o.trace) {
        e.latency_ms = lat[0];
        e.jobs_per_s = closed_loop_rate(lat[0]);
        report_end_to_end(rep, e);
    } else {
        report_per_layer(rep, L, tr, "cad.flow", overhead_pct(lat[0], lat[1]), o.trace_file);
    }
    rep.info["design"] = name;
    return rep;
}

// --- sim_stream -----------------------------------------------------------------------

RunReport sim_stream(const RunOptions& o) {
    RunReport rep;
    Tracer tr(o.trace);
    Tracer off(false);
    Layers L;
    EndToEnd e;
    std::mt19937_64 rng(o.seed);
    const core::ArchSpec arch = fabric(o.smoke);
    const std::vector<std::string> names = {o.smoke ? "qdi_add4" : "qdi_add24", "mp_fifo",
                                            "mousetrap_fifo", "of4_add"};

    // Set-up: compile one design per style (traced runs attribute these
    // compiles layer by layer) and check each. Every repetition compiles
    // at fresh seeds and keeps its implementations, so the timed jobs and
    // the quality figures cover three placements of every design (the job
    // rate kStreamNominalPerS is sized for those twelve implementations).
    constexpr int kStreamSetupReps = 3;
    std::vector<std::unique_ptr<Design>> designs;
    std::vector<Compiled> impls;  // impls[i] implements designs[i % designs.size()]
    std::int64_t req = 0;
    for (int r = 0; r < (o.smoke ? 1 : kStreamSetupReps); ++r) {
        const double t0 = now_s();
        designs.clear();
        for (const std::string& name : names) {
            designs.push_back(make_design(name));
            const Design& d = *designs.back();
            const std::uint64_t seed = rng();
            ++req;
            try {
                impls.push_back(compile(d, arch, seed, tr, req, o.trace ? &L : nullptr));
                const cad::FlowResult& fr = impls.back().fr;
                if (o.trace) attribute(d, arch, seed, fr, tr, req, L, rep.tally);
                const Check c = verify(d, *fr.rr, *fr.bits, fr.pad_names,
                                       draw_tokens(d, rng, kStreamTokens), off, 0, 0, nullptr);
                if (!c.why.empty())
                    throw std::runtime_error("post-route check failed: " + c.why);
                rep.tally.ok();
                e.quality.add(d.name, static_cast<double>(fr.routing.wirelength), c.period_ps);
            } catch (const std::exception& ex) {
                rep.tally.fail(d.name, seed, ex.what());
                throw std::runtime_error("sim_stream: set-up of " + d.name + " failed: " +
                                         ex.what());
            }
        }
        e.setup_s.push_back(now_s() - t0);
    }
    e.host.sample(kHostBlock);

    std::vector<double> lat[2];
    phases(o, [&](bool traced, double secs) {
        Tracer& t = traced ? tr : off;
        const std::size_t n = count_for(secs, kStreamNominalPerS);
        double prev_done = now_s();
        for (std::size_t i = 0; i < n; ++i) {
            ++req;
            if (traced) L.add("gen.late_ms", (now_s() - prev_done) * 1e3);
            const std::int64_t rid = t.reserve();
            const double t0 = now_s();
            Layers per_job;
            for (std::size_t k = 0; k < impls.size(); ++k) {
                const Design& d = *designs[k % designs.size()];
                const cad::FlowResult& fr = impls[k].fr;
                const auto tokens = draw_tokens(d, rng, kStreamTokens);
                const Check c = verify(d, *fr.rr, *fr.bits, fr.pad_names, tokens, t, rid, req,
                                       traced ? &per_job : nullptr);
                if (!c.why.empty()) {
                    rep.tally.fail(d.name, impls[k].seed, c.why);
                    continue;
                }
                rep.tally.ok();
                e.tokens += static_cast<double>(tokens.size());
                e.token_host_ms += c.host_ms;
            }
            const double done = now_s();
            if (t.enabled()) t.record(Span{"request", t0, done, rid, 0, req, false});
            lat[traced].push_back((done - t0) * 1e3);
            if (traced)
                for (const char* k : {"req.elaborate.ms", "req.sim.ms", "req.sim.events", "req.tokens"})
                    L.add(k, per_job.sum(k));
            if (i % 4 == 3) e.host.sample();
            prev_done = done;
        }
    });

    if (!o.trace) {
        e.latency_ms = lat[0];
        e.jobs_per_s = closed_loop_rate(lat[0]);
        report_end_to_end(rep, e);
    } else {
        report_per_layer(rep, L, tr, "request", overhead_pct(lat[0], lat[1]), o.trace_file);
    }
    rep.info["designs"] = join(names);
    return rep;
}

// --- served_styles ------------------------------------------------------------------

enum class Variant : std::uint8_t { Cold, PdeMargin, AstarFac };

/// One served request as the generator draws it.
struct ServedReq {
    std::size_t design = 0;
    std::uint64_t seed = 0;
    Variant variant = Variant::Cold;
    double knob = 0.0;
};

/// A seeded request sequence. It is stratified so that every seed offers
/// the same mix and only order, placement seeds and variant targets vary:
/// each block of kBlock requests holds kVariantsPerBlock variants (an
/// earlier cold request re-submitted with one downstream knob changed) at
/// shuffled positions, and cold requests walk the designs in shuffled
/// rounds that cover each design once.
std::vector<ServedReq> make_requests(std::size_t n, std::size_t n_designs, std::mt19937_64& rng) {
    std::vector<ServedReq> out;
    std::vector<std::size_t> cold;
    std::vector<std::size_t> round;
    std::vector<bool> variant_slot;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % kBlock == 0) {
            variant_slot.assign(kBlock, false);
            std::fill_n(variant_slot.begin(), kVariantsPerBlock, true);
            std::shuffle(variant_slot.begin(), variant_slot.end(), rng);
        }
        ServedReq r;
        if (!cold.empty() && variant_slot[i % kBlock]) {
            r = out[cold[rng() % cold.size()]];
            const bool pde = (rng() & 1) != 0;
            r.variant = pde ? Variant::PdeMargin : Variant::AstarFac;
            r.knob = pde ? kPdeMargins[rng() % 2] : kAstarFacs[rng() % 2];
        } else {
            if (round.empty()) {
                for (std::size_t k = 0; k < n_designs; ++k) round.push_back(k);
                std::shuffle(round.begin(), round.end(), rng);
            }
            r.design = round.back();
            round.pop_back();
            r.seed = rng();
            cold.push_back(i);
        }
        out.push_back(r);
    }
    return out;
}

cad::FlowOptions options_of(const ServedReq& r) {
    cad::FlowOptions o;
    o.seed = r.seed;
    if (r.variant == Variant::PdeMargin) o.pde_extra_margin = r.knob;
    if (r.variant == Variant::AstarFac) o.route.astar_fac = r.knob;
    return o;
}

/// Accumulators shared by the client threads of one phase.
struct ServedSink {
    std::mutex mu;
    Tally tally;
    Quality* quality = nullptr;  // cold compiles' wirelength and cycle time
    Layers* layers = nullptr;    // traced phases only
    double tokens = 0.0;
    double token_host_ms = 0.0;
};

/// Submit one compile, wait for its result, decode the blob through its
/// checksum and check the implementation post-route against the model.
/// A Busy refusal, a flow error, a corrupt blob and a wrong token each
/// count as a failure in `sink`. Never throws.
OpenLoopSample serve_one(cad::FlowClient& client, const Design& d, const core::ArchSpec& arch,
                         const core::RRGraph& rr, const cad::FlowOptions& opts, bool cold,
                         std::uint64_t token_seed, ServedSink& sink, Tracer& tr,
                         std::int64_t rid, std::int64_t req) {
    OpenLoopSample out;
    out.start_s = now_s();
    auto fail = [&](const std::string& why) {
        out.done_s = now_s();
        std::lock_guard<std::mutex> lock(sink.mu);
        sink.tally.fail(d.name, opts.seed, why);
    };
    try {
        cad::RemoteJobSpec spec;
        spec.name = d.name;
        spec.nl = &d.nl;
        spec.hints = &d.hints;
        spec.arch = arch;
        spec.opts = opts;
        Scope ss(tr, "client.submit", rid, req);
        const auto id = client.try_submit(spec);
        ss.close();
        if (!id) {
            fail("submit refused (server busy)");
            return out;
        }
        Scope sw(tr, "client.wait", rid, req);
        const cad::RemoteFlowResult res = client.wait(*id, d.name);
        const double wait_end = now_s();
        sw.close();
        if (!res.ok()) {
            fail("flow failed: " + res.error);
            return out;
        }
        if (tr.enabled()) {
            // The service's own queue/exec split, placed at the end of the wait.
            const double exec0 = wait_end - res.wall_ms / 1e3;
            tr.add("service.queue", exec0 - res.queue_ms / 1e3, exec0, sw.id(), req, true);
            const std::int64_t eid = tr.add("service.exec", exec0, wait_end, sw.id(), req, true);
            add_stage_spans(tr, res.telemetry_json, exec0, eid, req);
        }
        Scope sd(tr, "client.decode", rid, req);
        const cad::BitstreamArtifact art = res.decode_bitstream();
        sd.close();
        std::mt19937_64 trng(token_seed);
        const auto tokens = draw_tokens(d, trng, kServedTokens);
        const Check c = verify(d, rr, art.bits, art.pad_names, tokens, tr, rid, req, sink.layers);
        if (!c.why.empty()) {
            fail(c.why);
            return out;
        }
        out.done_s = now_s();
        out.ok = true;
        std::lock_guard<std::mutex> lock(sink.mu);
        sink.tally.ok();
        sink.tokens += static_cast<double>(tokens.size());
        sink.token_host_ms += c.host_ms;
        if (cold && sink.quality)
            sink.quality->add(d.name, telemetry_value(res.telemetry_json, "route", "wirelength"),
                              c.period_ps);
        if (sink.layers) {
            sink.layers->add("service.queue_ms", res.queue_ms);
            sink.layers->add("service.exec_ms", res.wall_ms);
            sink.layers->add("server.wire_ms",
                             (wait_end - out.start_s) * 1e3 - res.queue_ms - res.wall_ms);
            record_program_layers(*sink.layers, res.telemetry_json, res.wall_ms, true);
        }
    } catch (const std::exception& e) {
        fail(std::string("served request threw: ") + e.what());
    }
    return out;
}

/// What the served phases share: the designs, the device, the client's own
/// RR graph for elaborating results, and one connection per client thread.
struct ServedCtx {
    std::vector<std::unique_ptr<Design>> designs;
    core::ArchSpec arch;
    std::shared_ptr<const core::RRGraph> rr;
    std::string socket;
    std::vector<cad::FlowClient> clients;

    void connect(unsigned n) {
        clients.clear();
        for (unsigned c = 0; c < n; ++c)
            clients.push_back(cad::FlowClient::connect_unix(socket, "perfbench" + std::to_string(c)));
    }
    /// Serve request `r` on connection `client`; in a traced phase the
    /// request's root span runs from `due_s` (its start when negative).
    OpenLoopSample serve(unsigned client, const ServedReq& r, std::size_t index, ServedSink& sink,
                         Tracer& tr, std::int64_t req, double due_s = -1.0) {
        const std::int64_t rid = tr.reserve();
        const OpenLoopSample s = serve_one(
            clients[client], *designs[r.design], arch, *rr, options_of(r),
            r.variant == Variant::Cold, r.seed ^ (0x9e3779b97f4a7c15ull * (index + 1)), sink, tr,
            rid, req);
        if (tr.enabled()) {
            const double from = due_s < 0 ? s.start_s : due_s;
            if (due_s >= 0) tr.add("gen.late", due_s, std::max(due_s, s.start_s), rid, req);
            tr.record(Span{"request", from, s.done_s, rid, 0, req, false});
        }
        return s;
    }
};

RunReport served_styles(const RunOptions& o) {
    RunReport rep;
    Tracer tr(o.trace);
    Tracer off(false);
    Layers L;
    EndToEnd e;
    std::mt19937_64 rng(o.seed);
    const unsigned workers = std::max(1u, o.threads > 1 ? o.threads - 1 : 1u);
    const unsigned window = 2 * workers;

    ServedCtx ctx;
    ctx.arch = fabric(o.smoke);
    ctx.socket = o.socket_path;
    const std::vector<std::string> names = {"qdi_fa",         "qdi_add4",  "mp_fifo", "of4_add",
                                            "mousetrap_fifo", "wchb_fifo", "qdi_mul2"};

    // Set-up: start the server, prewarm its RR memo, build the client's
    // own RR graph, and push one cold compile of every design through the
    // whole path so every lazy cost is paid before timing.
    std::vector<ServedReq> warm;
    for (std::size_t k = 0; k < names.size(); ++k) warm.push_back({k, rng(), Variant::Cold, 0.0});
    std::unique_ptr<cad::FlowServer> server;
    for (int r = 0; r < (o.smoke ? 1 : kSetupReps); ++r) {
        const double t0 = now_s();
        ctx.clients.clear();
        server.reset();
        ctx.designs.clear();
        for (const auto& n : names) ctx.designs.push_back(make_design(n));
        cad::FlowServerOptions so;
        so.service.threads = workers;
        so.unix_path = ctx.socket;
        server = std::make_unique<cad::FlowServer>(so);
        server->start();
        {
            Scope s(tr, "core.rrgraph", 0, 0);
            (void)server->service().prewarm_rr(ctx.arch);
            if (o.trace) L.add("rrgraph.ms", s.close());
        }
        ctx.rr = std::make_shared<const core::RRGraph>(ctx.arch);
        ctx.connect(kOpenLoopClients);
        ServedSink ws;
        run_closed_loop(warm.size(), window, [&](unsigned c, std::size_t i) {
            ctx.serve(c, warm[i], i, ws, off, 0);
        });
        rep.tally.merge(ws.tally);
        e.setup_s.push_back(now_s() - t0);
    }
    e.host.sample(kHostBlock);
    L.add("rrgraph.nodes", static_cast<double>(ctx.rr->num_nodes()));

    // Timed phases: the open loop, then (untraced runs) the saturation phase.
    const double open_share = o.trace ? 1.0 : kOpenLoopShare;
    const std::size_t n_open = count_for(o.seconds * open_share, kServedRatePerS);
    const std::size_t n_sat = count_for(o.seconds * (1.0 - kOpenLoopShare), kSaturationNominalPerS);
    std::vector<double> lat[2];
    std::int64_t req_base = 0;
    auto stats0 = server->service().store().stats();
    auto busy0 = server->stats().submits_rejected_busy;
    ServedSink sink;
    sink.quality = &e.quality;
    std::vector<double> late;
    phases(o, [&](bool traced, double secs) {
        Tracer& t = traced ? tr : off;
        const auto reqs = make_requests(count_for(secs * open_share, kServedRatePerS),
                                        names.size(), rng);
        if (traced) {
            sink.layers = &L;
            stats0 = server->service().store().stats();
            busy0 = server->stats().submits_rejected_busy;
        }
        for (std::size_t k = 0; k < kServedChunks; ++k) {
            const std::size_t from = reqs.size() * k / kServedChunks;
            const std::size_t to = reqs.size() * (k + 1) / kServedChunks;
            const auto samples =
                run_open_loop(to - from, kServedRatePerS, kOpenLoopClients,
                              [&](unsigned c, std::size_t i, double due) {
                                  const std::size_t r = from + i;
                                  return ctx.serve(c, reqs[r], r, sink, t,
                                                   req_base + static_cast<std::int64_t>(r) + 1,
                                                   due);
                              });
            for (const OpenLoopSample& s : samples) {
                if (!s.ok) continue;
                lat[traced].push_back(latency_ms(s));
                (traced ? L.add("gen.late_ms", lateness_ms(s)) : late.push_back(lateness_ms(s)));
            }
            e.host.sample(kHostBlock);
        }
        req_base += static_cast<std::int64_t>(reqs.size());
        sink.layers = nullptr;
    });
    if (o.trace) {
        const auto stats1 = server->service().store().stats();
        const double hits = static_cast<double>(stats1.hits - stats0.hits);
        const double misses = static_cast<double>(stats1.misses - stats0.misses);
        L.add("artifact.hits", hits);
        L.add("artifact.misses", misses);
        L.add("artifact.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
        L.add("rrgraph.memo_hits", static_cast<double>(stats1.rr_hits - stats0.rr_hits));
        L.add("server.busy_rejects",
              static_cast<double>(server->stats().submits_rejected_busy - busy0));
    } else {
        const auto sat = make_requests(n_sat, names.size(), rng);
        double wall = 0.0;
        for (std::size_t k = 0; k < kServedChunks; ++k) {
            const std::size_t from = sat.size() * k / kServedChunks;
            const std::size_t to = sat.size() * (k + 1) / kServedChunks;
            wall += run_closed_loop(to - from, window, [&](unsigned c, std::size_t i) {
                ctx.serve(c, sat[from + i], from + i, sink, off, 0);
            });
            e.host.sample(kHostBlock);
        }
        e.jobs_per_s = wall > 0 ? static_cast<double>(n_sat) / wall : 0.0;
        rep.detail["saturation.jobs"] = static_cast<double>(n_sat);
        rep.detail["saturation.window"] = window;
    }
    ctx.clients.clear();
    server->stop();
    const auto sstats = server->stats();
    server.reset();
    std::error_code ec;
    std::filesystem::remove(ctx.socket, ec);
    rep.tally.merge(sink.tally);

    if (!o.trace) {
        e.latency_ms = lat[0];
        e.tokens = sink.tokens;
        e.token_host_ms = sink.token_host_ms;
        report_end_to_end(rep, e);
        rep.detail["gen.late_ms.p50"] = percentile(late, 50.0).value;
        rep.detail["gen.late_ms.max"] = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
    } else {
        report_per_layer(rep, L, tr, "request", overhead_pct(lat[0], lat[1]), o.trace_file);
        for (const auto& m : served_split_metrics()) rep.detail[m] = L.median(m);
    }
    rep.detail["open_loop.rate_per_s"] = kServedRatePerS;
    rep.detail["open_loop.requests"] = static_cast<double>(n_open);
    rep.detail["service.workers"] = workers;
    rep.detail["server.busy_rejects_total"] = static_cast<double>(sstats.submits_rejected_busy);
    rep.info["designs"] = join(names);
    return rep;
}

}  // namespace

RunReport run_workload(const RunOptions& o) {
    if (o.workload == "compile_adder24") return compile_adder24(o);
    if (o.workload == "served_styles") return served_styles(o);
    if (o.workload == "sim_stream") return sim_stream(o);
    throw std::invalid_argument("perfbench: unknown workload " + o.workload);
}

bool serve_once(cad::FlowClient& client, const Design& d, const core::ArchSpec& arch,
                const core::RRGraph& rr, std::uint64_t seed, Tally& tally) {
    ServedSink sink;
    Tracer off(false);
    cad::FlowOptions o;
    o.seed = seed;
    const OpenLoopSample s = serve_one(client, d, arch, rr, o, true, seed, sink, off, 0, 0);
    tally.merge(sink.tally);
    return s.ok;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double telemetry_value(const std::string& json, const std::string& stage, const std::string& key) {
    const std::string tag = "\"stage\":\"" + stage + "\"";
    const std::size_t at = json.find(tag);
    if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
    const std::size_t next = json.find("\"stage\":", at + tag.size());
    const std::string k = "\"" + key + "\":";
    const std::size_t kp = json.find(k, at);
    if (kp == std::string::npos || (next != std::string::npos && kp > next))
        return std::numeric_limits<double>::quiet_NaN();
    const char* v = json.c_str() + kp + k.size();
    if (std::string_view(v).starts_with("true")) return 1.0;
    if (std::string_view(v).starts_with("false")) return 0.0;
    char* end = nullptr;
    const double d = std::strtod(v, &end);
    return end == v ? std::numeric_limits<double>::quiet_NaN() : d;
}

}  // namespace perfbench

// The benchmark's own tests: the tail-percentile rule, open-loop timing
// from the due time with generator-lateness accounting, the host-speed
// factor, refusals counted as failures, span self time, and every
// catalogue design's model and token harness. The per-workload smoke runs are separate CTest entries
// (see perfbench/CMakeLists.txt).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "cad/flow_server.hpp"
#include "designs.hpp"
#include "hostspeed.hpp"
#include "openloop.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                                   \
    do {                                                                              \
        if (!(cond)) {                                                                \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
            ++g_failures;                                                             \
        }                                                                             \
    } while (0)

std::vector<double> iota_samples(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));  // unsorted
    return v;
}

void test_percentile_nearest_rank() {
    const auto v = iota_samples(10);
    const Quantile p50 = percentile(v, 50.0);
    CHECK(p50.value == 5.0 && p50.beyond == 5 && p50.n == 10);
    const Quantile p90 = percentile(v, 90.0);
    CHECK(p90.value == 9.0 && p90.beyond == 1);
    CHECK(percentile({}, 50.0).value == 0.0);
}

void test_tail_rule() {
    struct Case {
        std::size_t n;
        double pct;
    };
    // The highest ladder percentile with at least ten samples beyond it.
    for (const Case c : {Case{20, 50.0}, Case{40, 75.0}, Case{199, 90.0}, Case{200, 95.0},
                         Case{1000, 99.0}, Case{10000, 99.9}}) {
        const Quantile t = tail(iota_samples(c.n));
        CHECK(t.pct == c.pct);
        CHECK(t.beyond >= 10);
        CHECK(t.n == c.n);
    }
    // Too few samples for any: the median, with the shortfall visible.
    const Quantile few = tail(iota_samples(9));
    CHECK(few.pct == 50.0 && few.beyond == 4);
}

void test_open_loop_latency_from_due() {
    // Pure rule: a request sent late is charged its lateness.
    const OpenLoopSample s{1.0, 1.2, 1.25, true};
    CHECK(std::abs(latency_ms(s) - 250.0) < 1e-9);
    CHECK(std::abs(lateness_ms(s) - 200.0) < 1e-9);
    CHECK(lateness_ms({1.0, 0.9, 1.1, true}) == 0.0);
    CHECK((OpenLoopSchedule{2.0, 4.0}.due(3) == 2.75));

    // The generator itself: one worker, 100 requests/s, and request 0
    // stalls for 60 ms. Request 1 (due 10 ms later) waits behind it, and
    // its latency counts that wait.
    auto serve = [](unsigned, std::size_t i, double) {
        OpenLoopSample s;
        s.start_s = now_s();
        std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 60 : 1));
        s.done_s = now_s();
        s.ok = true;
        return s;
    };
    const auto one = run_open_loop(4, 100.0, 1, serve);
    CHECK(one.size() == 4);
    for (std::size_t i = 1; i < one.size(); ++i) CHECK(one[i].due_s > one[i - 1].due_s);
    CHECK(lateness_ms(one[1]) > 30.0);
    CHECK(latency_ms(one[1]) >= lateness_ms(one[1]) + 0.5);
    CHECK(latency_ms(one[1]) > (one[1].done_s - one[1].start_s) * 1e3 + 30.0);
    // With enough workers nobody waits behind the stall.
    const auto four = run_open_loop(4, 100.0, 4, serve);
    CHECK(lateness_ms(four[1]) < 20.0);
}

void test_closed_loop_runs_every_request_once() {
    std::vector<int> hits(50, 0);
    const double wall = run_closed_loop(hits.size(), 3, [&](unsigned, std::size_t i) { ++hits[i]; });
    for (int h : hits) CHECK(h == 1);
    CHECK(wall >= 0.0);
}

void test_host_speed_factor() {
    HostSpeed h;
    CHECK(h.samples() == 0 && h.factor() == 1.0);
    CHECK(h.kernel() == h.kernel());  // same work on every call
    h.sample(3);
    CHECK(h.samples() == 3);
    CHECK(h.median_ms() > 0.0);
    CHECK(std::abs(h.factor() - h.median_ms() / HostSpeed::kReferenceMs) < 1e-12);
}

void test_tally() {
    Tally t;
    t.ok();
    t.fail("qdi_fa", 7, "wrong token");
    CHECK(t.attempted() == 2 && t.failed() == 1 && t.fail_ratio() == 0.5);
    CHECK(t.reasons().size() == 1 && t.reasons()[0] == "qdi_fa seed=7: wrong token");
}

void test_refusal_counts_as_failure() {
    auto d = make_design("qdi_fa");
    afpga::core::ArchSpec arch;
    const afpga::core::RRGraph rr(arch);
    afpga::cad::FlowServerOptions so;
    so.service.threads = 1;
    so.max_pending = 1;
    so.unix_path = "perfbench-test-" + std::to_string(getpid()) + ".sock";
    afpga::cad::FlowServer server(so);
    server.start();
    server.service().pause();
    auto client = afpga::cad::FlowClient::connect_unix(so.unix_path);

    // Fill the one-deep queue, then the benchmark's own request is refused.
    afpga::cad::RemoteJobSpec spec;
    spec.nl = &d->nl;
    spec.hints = &d->hints;
    spec.arch = arch;
    const auto queued = client.try_submit(spec);
    CHECK(queued.has_value());
    Tally tally;
    CHECK(!serve_once(client, *d, arch, rr, 11, tally));
    CHECK(tally.attempted() == 1 && tally.failed() == 1);
    CHECK(!tally.reasons().empty() && tally.reasons()[0].find("refused") != std::string::npos);

    // Once the queue drains the same request succeeds and verifies.
    server.service().resume();
    (void)client.wait(*queued);
    CHECK(serve_once(client, *d, arch, rr, 11, tally));
    CHECK(tally.attempted() == 2 && tally.failed() == 1);
    client.close();
    server.stop();
    std::remove(so.unix_path.c_str());
}

void test_self_time_and_explained_share() {
    std::vector<Span> spans = {
        {"request", 0.000, 0.010, 1, 0, 1, false},
        {"a", 0.001, 0.003, 2, 1, 1, false},
        {"b", 0.002, 0.005, 3, 1, 1, false},
        {"c", 0.008, 0.009, 4, 1, 1, true},
    };
    const auto self = self_ms_by_name(spans);
    CHECK(std::abs(self.at("request") - 5.0) < 1e-9);
    CHECK(std::abs(self.at("b") - 3.0) < 1e-9);
    CHECK(std::abs(explained_share(spans[0], spans) - 0.5) < 1e-9);

    Tracer tr(true);
    {
        Scope outer(tr, "outer", 0, 9);
        Scope inner(tr, "inner", outer.id(), 9);
    }
    const auto got = tr.spans();
    CHECK(got.size() == 2 && got[0].name == "inner" && got[0].parent == got[1].id);
    const std::string path = "perfbench-test-" + std::to_string(getpid()) + ".trace.json";
    tr.write_chrome(path);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    CHECK(ss.str().find("\"traceEvents\"") != std::string::npos);
    CHECK(ss.str().find("\"parent\"") != std::string::npos);
    std::remove(path.c_str());

    Tracer off(false);
    Scope nothing(off, "x", 0, 1);
    CHECK(nothing.close() >= 0.0 && off.spans().empty());
}

void test_telemetry_value() {
    const std::string j =
        R"({"total_ms":5,"stages":[{"stage":"place","wall_ms":3.5,"iterations":2,)"
        R"("final_cost":10},{"stage":"route","wall_ms":1,"cache_hit":true,"wirelength":42}]})";
    CHECK(telemetry_value(j, "place", "wall_ms") == 3.5);
    CHECK(telemetry_value(j, "route", "wirelength") == 42.0);
    CHECK(telemetry_value(j, "route", "cache_hit") == 1.0);
    CHECK(std::isnan(telemetry_value(j, "place", "wirelength")));  // belongs to route
    CHECK(std::isnan(telemetry_value(j, "bitstream", "wall_ms")));
}

// Every catalogue design's behavioural model agrees with its own source
// netlist under the benchmark's token harness.
void test_designs_match_their_models() {
    std::mt19937_64 rng(5);
    for (const std::string& name : catalogue()) {
        auto d = make_design(name);
        afpga::sim::Simulator s(d->nl);
        s.run();
        const auto tokens = draw_tokens(*d, rng, 6);
        const TokenRun run = stream_tokens(*d, s, d->nl, tokens);
        const std::string why = check_tokens(*d, tokens, run);
        if (!why.empty()) std::fprintf(stderr, "%s: %s\n", name.c_str(), why.c_str());
        CHECK(why.empty());
        CHECK(run.events > 0);
    }
    auto add = make_design("qdi_add24");
    CHECK(add->expected((5ull) | (7ull << 24) | (1ull << 48)) == 13);
    auto mul = make_design("qdi_mul2");
    CHECK(mul->expected(3 | (2 << 2)) == 6);
    auto of4 = make_design("of4_add");
    CHECK(of4->expected(3 | (2 << 2)) == 1);
}

}  // namespace

int main() {
    test_percentile_nearest_rank();
    test_tail_rule();
    test_open_loop_latency_from_due();
    test_closed_loop_runs_every_request_once();
    test_host_speed_factor();
    test_tally();
    test_refusal_counts_as_failure();
    test_self_time_and_explained_share();
    test_telemetry_value();
    test_designs_match_their_models();
    if (g_failures) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("all perfbench tests passed\n");
    return 0;
}

#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "base/json.hpp"

namespace perfbench {

double now_s() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

std::int64_t Tracer::reserve() {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
}

void Tracer::record(Span s) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

std::int64_t Tracer::add(std::string name, double start_s, double end_s, std::int64_t parent,
                         std::int64_t request, bool program) {
    if (!enabled_) return 0;
    Span s{std::move(name), start_s, end_s, reserve(), parent, request, program};
    const std::int64_t id = s.id;
    record(std::move(s));
    return id;
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
    afpga::base::JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").begin_array();
    for (const Span& s : spans()) {
        w.begin_object();
        w.key("name").value(s.name);
        w.key("cat").value(s.program ? "program" : "outside");
        w.key("ph").value("X");
        w.key("ts").value(s.start_s * 1e6);
        w.key("dur").value((s.end_s - s.start_s) * 1e6);
        w.key("pid").value(1);
        w.key("tid").value(s.request);
        w.key("args").begin_object();
        w.key("id").value(s.id);
        w.key("parent").value(s.parent);
        w.key("request").value(s.request);
        w.key("start_us").value(s.start_s * 1e6);
        w.key("end_us").value(s.end_s * 1e6);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream out(path);
    out << w.str() << "\n";
    if (!out) throw std::runtime_error("perfbench: cannot write trace file " + path);
}

Scope::Scope(Tracer& t, std::string name, std::int64_t parent, std::int64_t request)
    : t_(t), name_(std::move(name)), parent_(parent), request_(request), id_(t.reserve()),
      start_s_(now_s()) {}

double Scope::close() {
    const double end = now_s();
    if (open_) {
        open_ = false;
        if (t_.enabled())
            t_.record(Span{std::move(name_), start_s_, end, id_, parent_, request_, false});
    }
    return (end - start_s_) * 1e3;
}

namespace {

/// Length of the union of [a, b) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi) {
    for (auto& [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
    }
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    bool have = false;
    for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (!have || a > cur_b) {
            if (have) total += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            have = true;
        } else {
            cur_b = std::max(cur_b, b);
        }
    }
    if (have) total += cur_b - cur_a;
    return total;
}

std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>> children_of(
    const std::vector<Span>& spans) {
    std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span& s : spans)
        if (s.parent != 0) kids[s.parent].emplace_back(s.start_s, s.end_s);
    return kids;
}

}  // namespace

std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans) {
    const auto kids = children_of(spans);
    std::map<std::string, double> self;
    for (const Span& s : spans) {
        double child = 0.0;
        const auto it = kids.find(s.id);
        if (it != kids.end()) child = covered(it->second, s.start_s, s.end_s);
        self[s.name] += std::max(0.0, (s.end_s - s.start_s) - child) * 1e3;
    }
    return self;
}

double explained_share(const Span& parent, const std::vector<Span>& spans) {
    const double dur = parent.end_s - parent.start_s;
    if (dur <= 0.0) return 0.0;
    std::vector<std::pair<double, double>> iv;
    for (const Span& s : spans)
        if (s.parent == parent.id) iv.emplace_back(s.start_s, s.end_s);
    return covered(std::move(iv), parent.start_s, parent.end_s) / dur;
}

}  // namespace perfbench

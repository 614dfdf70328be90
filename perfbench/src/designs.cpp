#include "designs.hpp"

#include <exception>
#include <stdexcept>
#include <unordered_map>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "asynclib/oneofn.hpp"
#include "base/strings.hpp"
#include "netlist/truthtable.hpp"
#include "sim/channels.hpp"
#include "sim/testbench.hpp"

namespace perfbench {

using afpga::base::bus_bit;
using afpga::netlist::Logic;
using afpga::netlist::NetId;

namespace {

// Environment timing (ps): source/sink response delay and the bundled
// sources' data-to-request slack. Bundled-data sources hold data 3 ns
// before raising the request: the fabric's delay elements match internal
// paths only, and the routed skew from the input pads to the first latch
// reaches about 2 ns on 24x24. The MOUSETRAP environment also answers
// slowly: with a 120 ps response its routed latch loop loses tokens on a
// 12x12 fabric (a hold-time race the flow does not sign off).
constexpr std::int64_t kWchbEnvPs = 50;
constexpr std::int64_t kMpFifoEnvPs = 100;
constexpr std::int64_t kMousetrapEnvPs = 1000;
constexpr std::int64_t kBundledSettlePs = 3000;
// Simulated-time budget per token before a stream counts as hung.
constexpr std::int64_t kTokenTimeoutPs = 10'000'000;

std::uint64_t mask(std::size_t bits) {
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Port lookup on an implementation netlist: PIs by net name, POs by their
/// primary-output name.
class Ports {
public:
    explicit Ports(const netlist::Netlist& nl) : nl_(nl) {
        for (const auto& [name, net] : nl.primary_outputs()) po_.emplace(name, net);
    }
    [[nodiscard]] NetId in(const std::string& name) const {
        const NetId n = nl_.find_net(name);
        if (!n.valid()) throw std::runtime_error("missing input " + name);
        return n;
    }
    [[nodiscard]] NetId out(const std::string& name) const {
        const auto it = po_.find(name);
        if (it == po_.end()) throw std::runtime_error("missing output " + name);
        return it->second;
    }
    [[nodiscard]] asynclib::DualRail in_rails(const std::string& base) const {
        return {in(base + ".t"), in(base + ".f")};
    }
    [[nodiscard]] asynclib::DualRail out_rails(const std::string& base) const {
        return {out(base + ".t"), out(base + ".f")};
    }

private:
    const netlist::Netlist& nl_;
    std::unordered_map<std::string, NetId> po_;
};

/// Mean per-token simulated duration over the second half of the stream
/// (warm-up excluded), the same convention as sim::TokenTimes.
double steady_period(const std::vector<std::int64_t>& durations) {
    if (durations.size() < 2) return durations.empty() ? 0.0 : static_cast<double>(durations[0]);
    const std::size_t from = durations.size() / 2;
    double s = 0.0;
    for (std::size_t i = from; i < durations.size(); ++i) s += static_cast<double>(durations[i]);
    return s / static_cast<double>(durations.size() - from);
}

/// One 4-phase transaction at a time through a combinational block:
/// `apply` returns the decoded output of one token.
template <typename Apply>
void run_transactions(sim::Simulator& s, const std::vector<std::uint64_t>& tokens, TokenRun& r,
                      Apply apply) {
    std::vector<std::int64_t> durations;
    for (std::uint64_t t : tokens) {
        const std::int64_t t0 = s.now();
        r.got.push_back(apply(t));
        durations.push_back(s.now() - t0);
    }
    r.period_ps = steady_period(durations);
}

std::unique_ptr<Design> of4_adder() {
    auto d = std::make_unique<Design>();
    d->nl = netlist::Netlist("of4_add");
    const auto ins = asynclib::add_one_of_four_inputs(d->nl, "x", 2);
    const auto bit = [](unsigned b) {
        return netlist::TruthTable::from_function(4, [b](std::uint32_t m) {
            return ((((m & 3) + ((m >> 2) & 3)) >> b) & 1) != 0;
        });
    };
    auto res = asynclib::expand_one_of_four(d->nl, {bit(0), bit(1)}, ins, "add");
    const NetId done = asynclib::add_of4_completion(d->nl, res.outputs, "cd");
    for (std::size_t s = 0; s < 4; ++s)
        d->nl.add_output("out.r" + std::to_string(s), res.outputs[0].rail[s]);
    d->nl.add_output("done", done);
    d->nl.validate();
    d->hints = res.hints;
    return d;
}

}  // namespace

unsigned Design::token_bits() const {
    switch (kind) {
        case DesignKind::QdiAdder: return static_cast<unsigned>(2 * bits + 1);
        case DesignKind::QdiMultiplier: return static_cast<unsigned>(2 * bits);
        case DesignKind::Of4Adder: return 4;
        case DesignKind::MousetrapFifo:
        case DesignKind::MpFifo:
        case DesignKind::WchbFifo: return static_cast<unsigned>(bits);
    }
    return 0;
}

std::uint64_t Design::expected(std::uint64_t t) const {
    const std::uint64_t m = mask(bits);
    switch (kind) {
        case DesignKind::QdiAdder:
            return (t & m) + ((t >> bits) & m) + ((t >> (2 * bits)) & 1);
        case DesignKind::QdiMultiplier: return (t & m) * ((t >> bits) & m);
        case DesignKind::Of4Adder: return ((t & 3) + ((t >> 2) & 3)) & 3;
        case DesignKind::MousetrapFifo:
        case DesignKind::MpFifo:
        case DesignKind::WchbFifo: return t & m;
    }
    return 0;
}

const std::vector<std::string>& catalogue() {
    static const std::vector<std::string> names = {
        "qdi_fa",         "qdi_add4", "qdi_add24", "qdi_mul2",
        "of4_add",        "mp_fifo",  "wchb_fifo", "mousetrap_fifo",
    };
    return names;
}

std::unique_ptr<Design> make_design(const std::string& name) {
    std::unique_ptr<Design> d;
    auto qdi_adder = [&](std::size_t n) {
        auto a = asynclib::make_qdi_adder(n);
        d = std::make_unique<Design>();
        d->nl = std::move(a.nl);
        d->hints = std::move(a.hints);
        d->kind = DesignKind::QdiAdder;
        d->bits = n;
    };
    if (name == "qdi_fa") {
        qdi_adder(1);
    } else if (name == "qdi_add4") {
        qdi_adder(4);
    } else if (name == "qdi_add24") {
        qdi_adder(24);
    } else if (name == "of4_add") {
        d = of4_adder();
        d->kind = DesignKind::Of4Adder;
        d->bits = 2;
    } else if (name == "mousetrap_fifo") {
        auto f = asynclib::make_mousetrap_fifo(4, 2);
        d = std::make_unique<Design>();
        d->nl = std::move(f.nl);
        d->kind = DesignKind::MousetrapFifo;
        d->bits = 4;
    } else if (name == "mp_fifo") {
        auto f = asynclib::make_micropipeline_fifo(4, 3);
        d = std::make_unique<Design>();
        d->nl = std::move(f.nl);
        d->kind = DesignKind::MpFifo;
        d->bits = 4;
    } else if (name == "wchb_fifo") {
        auto f = asynclib::make_wchb_fifo(4, 3);
        d = std::make_unique<Design>();
        d->nl = std::move(f.nl);
        d->hints = std::move(f.hints);
        d->kind = DesignKind::WchbFifo;
        d->bits = 4;
    } else if (name == "qdi_mul2") {
        auto m = asynclib::make_qdi_multiplier(2);
        d = std::make_unique<Design>();
        d->nl = std::move(m.nl);
        d->hints = std::move(m.hints);
        d->kind = DesignKind::QdiMultiplier;
        d->bits = 2;
    } else {
        throw std::invalid_argument("perfbench: unknown design " + name);
    }
    d->name = name;
    return d;
}

std::vector<std::uint64_t> draw_tokens(const Design& d, std::mt19937_64& rng, std::size_t n) {
    std::vector<std::uint64_t> t(n);
    const std::uint64_t m = mask(d.token_bits());
    for (auto& v : t) v = rng() & m;
    return t;
}

TokenRun stream_tokens(const Design& d, sim::Simulator& s, const netlist::Netlist& impl,
                       const std::vector<std::uint64_t>& tokens) {
    TokenRun r;
    const std::uint64_t events0 = s.total_events();
    try {
        const Ports p(impl);
        switch (d.kind) {
            case DesignKind::QdiAdder:
            case DesignKind::QdiMultiplier: {
                sim::QdiCombIface iface;
                const bool add = d.kind == DesignKind::QdiAdder;
                for (std::size_t i = 0; i < d.bits; ++i) iface.inputs.push_back(p.in_rails(bus_bit("a", i)));
                for (std::size_t i = 0; i < d.bits; ++i) iface.inputs.push_back(p.in_rails(bus_bit("b", i)));
                if (add) {
                    iface.inputs.push_back(p.in_rails("cin"));
                    for (std::size_t i = 0; i < d.bits; ++i)
                        iface.outputs.push_back(p.out_rails(bus_bit("sum", i)));
                    iface.outputs.push_back(p.out_rails("cout"));
                } else {
                    for (std::size_t i = 0; i < 2 * d.bits; ++i)
                        iface.outputs.push_back(p.out_rails(bus_bit("p", i)));
                }
                iface.done = p.out("done");
                run_transactions(s, tokens, r, [&](std::uint64_t t) {
                    return sim::qdi_apply_token(s, iface, t, kTokenTimeoutPs);
                });
                break;
            }
            case DesignKind::Of4Adder: {
                NetId in[2][4];
                NetId out[4];
                for (std::size_t g = 0; g < 2; ++g)
                    for (std::size_t k = 0; k < 4; ++k)
                        in[g][k] = p.in("x[" + std::to_string(g) + "].r" + std::to_string(k));
                for (std::size_t k = 0; k < 4; ++k) out[k] = p.out("out.r" + std::to_string(k));
                const NetId done = p.out("done");
                run_transactions(s, tokens, r, [&](std::uint64_t t) -> std::uint64_t {
                    const std::uint64_t x = t & 3;
                    const std::uint64_t y = (t >> 2) & 3;
                    s.schedule_pi(in[0][x], Logic::T);
                    s.schedule_pi(in[1][y], Logic::T);
                    s.run_until(done, Logic::T, s.now() + kTokenTimeoutPs);
                    if (s.value(done) != Logic::T) throw std::runtime_error("done never rose");
                    std::uint64_t got = 4;  // not a 1-of-4 codeword
                    int fired = 0;
                    for (std::uint64_t k = 0; k < 4; ++k)
                        if (s.value(out[k]) == Logic::T) {
                            got = k;
                            ++fired;
                        }
                    if (fired != 1) got = 4;
                    s.schedule_pi(in[0][x], Logic::F);
                    s.schedule_pi(in[1][y], Logic::F);
                    s.run_until(done, Logic::F, s.now() + kTokenTimeoutPs);
                    if (s.value(done) != Logic::F) throw std::runtime_error("done never fell");
                    return got;
                });
                break;
            }
            case DesignKind::MousetrapFifo: {
                std::vector<NetId> in;
                std::vector<NetId> out;
                for (std::size_t i = 0; i < d.bits; ++i) {
                    in.push_back(p.in(bus_bit("in", i)));
                    out.push_back(p.out(bus_bit("out", i)));
                }
                sim::Bd2StreamSource src(s, in, p.in("req_in"), p.out("ack_in"), tokens,
                                         kMousetrapEnvPs, kBundledSettlePs);
                sim::Bd2StreamSink sink(s, out, p.out("req_out"), p.in("ack_out"),
                                        kMousetrapEnvPs);
                src.start();
                s.run(s.now() + kTokenTimeoutPs * static_cast<std::int64_t>(tokens.size() + 1));
                r.got = sink.received();
                r.period_ps = sink.times().steady_period_ps();
                break;
            }
            case DesignKind::MpFifo: {
                std::vector<NetId> in;
                std::vector<NetId> out;
                for (std::size_t i = 0; i < d.bits; ++i) {
                    in.push_back(p.in(bus_bit("in", i)));
                    out.push_back(p.out(bus_bit("out", i)));
                }
                sim::BdStreamSource src(s, in, p.in("req_in"), p.out("ack_in"), tokens,
                                        kMpFifoEnvPs, kBundledSettlePs);
                sim::BdStreamSink sink(s, out, p.out("req_out"), p.in("ack_out"), kMpFifoEnvPs);
                src.start();
                s.run(s.now() + kTokenTimeoutPs * static_cast<std::int64_t>(tokens.size() + 1));
                r.got = sink.received();
                r.period_ps = sink.times().steady_period_ps();
                break;
            }
            case DesignKind::WchbFifo: {
                std::vector<asynclib::DualRail> in;
                std::vector<asynclib::DualRail> out;
                for (std::size_t i = 0; i < d.bits; ++i) {
                    in.push_back(p.in_rails(bus_bit("in", i)));
                    out.push_back(p.out_rails(bus_bit("out", i)));
                }
                sim::DrStreamSource src(s, in, p.out("ack_in"), tokens, kWchbEnvPs);
                sim::DrStreamSink sink(s, out, p.in("ack_out"), kWchbEnvPs);
                src.start();
                s.run(s.now() + kTokenTimeoutPs * static_cast<std::int64_t>(tokens.size() + 1));
                r.got = sink.received();
                r.period_ps = sink.times().steady_period_ps();
                break;
            }
        }
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    r.events = s.total_events() - events0;
    return r;
}

std::string check_tokens(const Design& d, const std::vector<std::uint64_t>& tokens,
                         const TokenRun& run) {
    if (!run.error.empty()) return run.error;
    if (run.got.size() != tokens.size())
        return "received " + std::to_string(run.got.size()) + " of " +
               std::to_string(tokens.size()) + " tokens";
    for (std::size_t i = 0; i < tokens.size(); ++i)
        if (run.got[i] != d.expected(tokens[i]))
            return "token " + std::to_string(i) + " (" + std::to_string(tokens[i]) + "): got " +
                   std::to_string(run.got[i]) + ", want " +
                   std::to_string(d.expected(tokens[i]));
    if (run.period_ps <= 0.0) return "no steady-state token period";
    return {};
}

}  // namespace perfbench

/// \file
/// The benchmark's design catalogue: one generator per asynchronous style
/// the paper implements on its fabric, each paired with a behavioural
/// model and a token harness that checks a post-route implementation
/// against that model.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "asynclib/styles.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace asynclib = afpga::asynclib;
namespace netlist = afpga::netlist;
namespace sim = afpga::sim;

/// How a design's tokens are driven and checked.
enum class DesignKind : std::uint8_t {
    QdiAdder,       ///< dual-rail DIMS ripple adder: a + b + cin
    QdiMultiplier,  ///< dual-rail DIMS multiplier: a * b
    Of4Adder,       ///< 1-of-4 digits: (x + y) mod 4
    MousetrapFifo,  ///< 2-phase bundled FIFO: order and value
    MpFifo,         ///< 4-phase micropipeline FIFO: order and value
    WchbFifo,       ///< QDI dual-rail FIFO: order and value
};

/// One generated design. Owned by the workload for the whole run: served
/// jobs and flow calls borrow its netlist and hints.
struct Design {
    std::string name;   ///< catalogue name, e.g. "qdi_add24"
    DesignKind kind = DesignKind::QdiAdder;
    std::size_t bits = 0;  ///< operand / FIFO word width
    netlist::Netlist nl;
    asynclib::MappingHints hints;

    /// Bits of one input token (operands packed LSB first).
    [[nodiscard]] unsigned token_bits() const;
    /// The behavioural model: the output this token must produce.
    [[nodiscard]] std::uint64_t expected(std::uint64_t token) const;
};

/// Names make_design accepts.
[[nodiscard]] const std::vector<std::string>& catalogue();

/// Generate a design by catalogue name; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] std::unique_ptr<Design> make_design(const std::string& name);

/// `n` uniformly drawn tokens for `d`.
[[nodiscard]] std::vector<std::uint64_t> draw_tokens(const Design& d, std::mt19937_64& rng,
                                                     std::size_t n);

/// Outcome of streaming tokens through an implementation.
struct TokenRun {
    std::vector<std::uint64_t> got;  ///< outputs in arrival order
    double period_ps = 0.0;          ///< steady-state simulated token period
    std::uint64_t events = 0;        ///< simulator events processed
    std::string error;               ///< non-empty when the stream broke
};

/// Stream `tokens` through `sim`, which simulates `impl` (an elaborated,
/// delay-annotated implementation of `d` that has already settled). Ports
/// are found by name: post-route primary outputs keep theirs. Never throws:
/// protocol failures land in TokenRun::error.
[[nodiscard]] TokenRun stream_tokens(const Design& d, sim::Simulator& sim,
                                     const netlist::Netlist& impl,
                                     const std::vector<std::uint64_t>& tokens);

/// Empty when `run` matches the model on every token, else the first
/// mismatch as text.
[[nodiscard]] std::string check_tokens(const Design& d, const std::vector<std::uint64_t>& tokens,
                                       const TokenRun& run);

}  // namespace perfbench

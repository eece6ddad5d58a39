#include "core/cost_model.hh"

#include <cmath>

#include "rtl/operator_netlists.hh"

namespace dtann {

namespace {

/** Paper calibration targets (Table III, 90-10-10 at 90 nm). */
constexpr double paperAreaMm2 = 9.02;
constexpr double paperEnergyPerRowNj = 70.16;
constexpr double paperLatencyNs = 14.92;

/**
 * Latch arrays toggle far less than datapath logic; a reduced
 * activity factor models their lower power density (the paper's
 * interface power share is ~5x below its area share).
 */
constexpr double interfaceActivity = 0.2;

/** Gate levels of a balanced reduction over @p fanin operands. */
int
treeLevels(int fanin)
{
    int levels = 0;
    while ((1 << levels) < fanin)
        ++levels;
    return levels;
}

} // namespace

CostModel::CostModel(const AcceleratorConfig &config,
                     const DmaConfig &dma_config)
    : cfg(config), dma(dma_config)
{
    const OperatorNetlists &ops = operatorNetlists(cfg.faStyle);
    const Netlist &mult = *ops.multiplier;
    const Netlist &add = *ops.adder;
    const Netlist &latch = *ops.latch;
    const Netlist &act = *ops.sigmoid;
    multT = mult.transistorCount();
    addT = add.transistorCount();
    latchT = latch.transistorCount();
    actT = act.transistorCount();
    multDepth = mult.depth();
    addDepth = add.depth();
    actDepth = act.depth();

    // Calibrate against the fixed reference point: the paper's
    // 90-10-10 array in NAND9 cells. Other configurations then
    // scale by their real transistor counts and depths.
    if (cfg.faStyle == FaStyle::Nand9 && cfg.inputs == 90 &&
        cfg.hidden == 10 && cfg.outputs == 10) {
        areaPerTransistorMm2 =
            paperAreaMm2 / static_cast<double>(arrayTransistors());
        energyPerTransistorNj =
            paperEnergyPerRowNj /
            static_cast<double>(arrayTransistors());
        delayPerLevelNs =
            paperLatencyNs / static_cast<double>(criticalPathDepth());
    } else {
        static const CostModel reference((AcceleratorConfig()));
        areaPerTransistorMm2 = reference.areaPerTransistorMm2;
        energyPerTransistorNj = reference.energyPerTransistorNj;
        delayPerLevelNs = reference.delayPerLevelNs;
    }
}

size_t
CostModel::arrayTransistors() const
{
    size_t syn = static_cast<size_t>(cfg.hidden) *
            static_cast<size_t>(cfg.inputs + 1) +
        static_cast<size_t>(cfg.outputs) *
            static_cast<size_t>(cfg.hidden + 1);
    size_t stages = static_cast<size_t>(cfg.hidden) *
            static_cast<size_t>(cfg.inputs) +
        static_cast<size_t>(cfg.outputs) *
            static_cast<size_t>(cfg.hidden);
    size_t acts =
        static_cast<size_t>(cfg.hidden) + static_cast<size_t>(cfg.outputs);
    return syn * (multT + latchT) + stages * addT + acts * actT;
}

size_t
CostModel::outputRowTransistors() const
{
    size_t syn = static_cast<size_t>(cfg.hidden + 1);
    size_t stages = static_cast<size_t>(cfg.hidden);
    return syn * (multT + latchT) + stages * addT + actT;
}

double
CostModel::areaOf(size_t transistors) const
{
    return static_cast<double>(transistors) * areaPerTransistorMm2;
}

double
CostModel::energyPerRowOf(size_t transistors) const
{
    return static_cast<double>(transistors) * energyPerTransistorNj;
}

size_t
CostModel::interfaceTransistors() const
{
    // Per-bit cost of one gated D latch (NOT + 4x NAND2).
    constexpr size_t latchBitT = 18;
    // 2-deep input and output row buffers, plus the partial
    // time-multiplexing add-ons (hidden-output collection latches
    // and output-layer feed latches), all 16-bit.
    size_t buffered_words =
        2 * static_cast<size_t>(cfg.inputs) +
        2 * static_cast<size_t>(cfg.outputs) +
        2 * static_cast<size_t>(cfg.hidden);
    size_t buffers = buffered_words * 16 * latchBitT;
    // Weight-write decode: one write-enable line per neuron.
    size_t decode =
        static_cast<size_t>(cfg.hidden + cfg.outputs) * 30;
    // DMA control FSM + handshake.
    constexpr size_t control = 3000;
    return buffers + decode + control;
}

int
CostModel::criticalPathDepth() const
{
    // Hidden stage: multiplier, balanced adder tree (each level is
    // one 24-bit ripple adder), activation; then the output stage.
    int hidden = multDepth + treeLevels(cfg.inputs + 1) * addDepth +
        actDepth;
    int output = multDepth + treeLevels(cfg.hidden + 1) * addDepth +
        actDepth;
    return hidden + output;
}

BlockCost
CostModel::accelerator() const
{
    BlockCost c;
    double t = static_cast<double>(arrayTransistors());
    c.areaMm2 = t * areaPerTransistorMm2;
    c.latencyNs =
        static_cast<double>(criticalPathDepth()) * delayPerLevelNs;
    c.energyPerRowNj = t * energyPerTransistorNj;
    c.powerW = c.energyPerRowNj / c.latencyNs;
    return c;
}

BlockCost
CostModel::activation() const
{
    BlockCost c;
    double t = static_cast<double>(actT);
    c.areaMm2 = t * areaPerTransistorMm2;
    c.latencyNs = static_cast<double>(actDepth) * delayPerLevelNs;
    c.energyPerRowNj = t * energyPerTransistorNj;
    c.powerW = c.energyPerRowNj / accelerator().latencyNs;
    return c;
}

BlockCost
CostModel::interface() const
{
    BlockCost c;
    double t = static_cast<double>(interfaceTransistors());
    c.areaMm2 = t * areaPerTransistorMm2;
    // One row transfer: inputs x 16 bits over the links.
    c.latencyNs = dma.transferNs(cfg.inputs * 16);
    c.energyPerRowNj = t * energyPerTransistorNj * interfaceActivity;
    c.powerW = c.energyPerRowNj / accelerator().latencyNs;
    return c;
}

double
CostModel::keyLogicFraction(int generations) const
{
    double array = static_cast<double>(arrayTransistors()) *
        areaPerTransistorMm2 / std::pow(2.0, generations);
    double key = static_cast<double>(interfaceTransistors()) *
        areaPerTransistorMm2;
    return key / (key + array);
}

double
CostModel::hardenedKeyLogicOverhead(double factor, int generations) const
{
    dtann_assert(factor >= 1.0, "hardening factor must be >= 1");
    double array = static_cast<double>(arrayTransistors()) *
        areaPerTransistorMm2 / std::pow(2.0, generations);
    double key = static_cast<double>(interfaceTransistors()) *
        areaPerTransistorMm2;
    return key * (factor - 1.0) / (key + array);
}

double
CostModel::outputCriticalAreaFraction() const
{
    double critical = static_cast<double>(
        static_cast<size_t>(cfg.outputs) *
            static_cast<size_t>(cfg.hidden) * addT +
        static_cast<size_t>(cfg.outputs) * actT);
    return critical / static_cast<double>(arrayTransistors());
}

double
CostModel::outputCriticalShareOfOutputLayer() const
{
    size_t syn = static_cast<size_t>(cfg.outputs) *
        static_cast<size_t>(cfg.hidden + 1);
    size_t stages = static_cast<size_t>(cfg.outputs) *
        static_cast<size_t>(cfg.hidden);
    size_t acts = static_cast<size_t>(cfg.outputs);
    double layer = static_cast<double>(syn * (multT + latchT) +
                                       stages * addT + acts * actT);
    double critical = static_cast<double>(stages * addT + acts * actT);
    return critical / layer;
}

} // namespace dtann

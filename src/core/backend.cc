#include "core/backend.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "ann/sigmoid.hh"
#include "circuit/lane_plane.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/accelerator.hh"
#include "core/systolic.hh"
#include "rtl/clean_model.hh"
#include "rtl/operator_netlists.hh"

namespace dtann {

std::string
AcceleratorConfig::toJson() const
{
    std::string out = "{\"inputs\":" + std::to_string(inputs);
    out += ",\"hidden\":" + std::to_string(hidden);
    out += ",\"outputs\":" + std::to_string(outputs);
    out += ",\"fa_style\":" + jsonString(faStyleName(faStyle));
    out += "}";
    return out;
}

AcceleratorConfig
AcceleratorConfig::fromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw JsonError("accelerator config must be a JSON object");
    AcceleratorConfig c;
    c.inputs = jsonGetInt(v, "inputs", c.inputs, 1, 1 << 20);
    c.hidden = jsonGetInt(v, "hidden", c.hidden, 1, 1 << 20);
    c.outputs = jsonGetInt(v, "outputs", c.outputs, 1, 1 << 20);
    std::string style =
        jsonGetString(v, "fa_style", faStyleName(c.faStyle));
    if (!faStyleFromName(style, c.faStyle))
        throw JsonError("unknown fa_style '" + style +
                        "' (expected nand9 or mirror)");
    return c;
}

bool
UnitSite::operator<(const UnitSite &o) const
{
    return std::tie(kind, layer, neuron, index) <
        std::tie(o.kind, o.layer, o.neuron, o.index);
}

std::string
UnitSite::describe() const
{
    const char *k = "?";
    switch (kind) {
      case UnitKind::WeightLatch: k = "latch"; break;
      case UnitKind::Multiplier: k = "mult"; break;
      case UnitKind::AdderStage: k = "adder"; break;
      case UnitKind::Activation: k = "act"; break;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s[%s n%d i%d]", k,
                  layer == Layer::Hidden ? "hid" : "out", neuron, index);
    return buf;
}

SitePool
SitePool::inputAndHidden()
{
    SitePool p;
    p.hiddenLayer = true;
    p.outputLayer = false;
    return p;
}

SitePool
SitePool::outputCritical()
{
    SitePool p;
    p.hiddenLayer = false;
    p.outputLayer = true;
    p.latches = false;
    p.multipliers = false;
    p.adders = true;
    p.activations = true;
    return p;
}

SitePool
SitePool::all()
{
    SitePool p;
    p.hiddenLayer = p.outputLayer = true;
    return p;
}

std::string
SitePool::toJson() const
{
    auto flag = [](bool b) { return b ? "true" : "false"; };
    std::string out = "{\"hidden_layer\":";
    out += flag(hiddenLayer);
    out += ",\"output_layer\":";
    out += flag(outputLayer);
    out += ",\"latches\":";
    out += flag(latches);
    out += ",\"multipliers\":";
    out += flag(multipliers);
    out += ",\"adders\":";
    out += flag(adders);
    out += ",\"activations\":";
    out += flag(activations);
    out += "}";
    return out;
}

SitePool
SitePool::fromJson(const JsonValue &v)
{
    if (v.kind() == JsonValue::Kind::String) {
        const std::string &name = v.asString();
        if (name == "all")
            return all();
        if (name == "input_hidden")
            return inputAndHidden();
        if (name == "output_critical")
            return outputCritical();
        throw JsonError("unknown site pool '" + name +
                        "' (expected all, input_hidden or "
                        "output_critical)");
    }
    if (!v.isObject())
        throw JsonError("site pool must be a name string or an "
                        "object of eligibility flags");
    SitePool p;
    p.hiddenLayer = jsonGetBool(v, "hidden_layer", p.hiddenLayer);
    p.outputLayer = jsonGetBool(v, "output_layer", p.outputLayer);
    p.latches = jsonGetBool(v, "latches", p.latches);
    p.multipliers = jsonGetBool(v, "multipliers", p.multipliers);
    p.adders = jsonGetBool(v, "adders", p.adders);
    p.activations = jsonGetBool(v, "activations", p.activations);
    return p;
}

const char *
backendName(BackendKind kind)
{
    return kind == BackendKind::Spatial ? "spatial" : "systolic";
}

bool
backendFromName(const std::string &name, BackendKind &out)
{
    if (name == "spatial") {
        out = BackendKind::Spatial;
        return true;
    }
    if (name == "systolic") {
        out = BackendKind::Systolic;
        return true;
    }
    return false;
}

std::string
backendNameList()
{
    return "spatial, systolic";
}

HardwareBackend::HardwareBackend(const AcceleratorConfig &config,
                                 MlpTopology logical_topo,
                                 bool shared_passes)
    : cfg(config), logical(logical_topo),
      hidW(static_cast<size_t>(config.hidden) *
           static_cast<size_t>(config.inputs + 1)),
      outW(static_cast<size_t>(config.outputs) *
           static_cast<size_t>(config.hidden + 1)),
      multNl(operatorNetlists(config.faStyle).multiplier),
      addNl(operatorNetlists(config.faStyle).adder),
      latchNl(operatorNetlists(config.faStyle).latch),
      actNl(operatorNetlists(config.faStyle).sigmoid),
      sharedPasses(shared_passes)
{
    dtann_assert(logical.inputs <= cfg.inputs &&
                     logical.hidden <= cfg.hidden &&
                     logical.outputs <= cfg.outputs,
                 "logical network %d-%d-%d does not fit the %d-%d-%d "
                 "array (use the time-multiplexed wrapper)",
                 logical.inputs, logical.hidden, logical.outputs,
                 cfg.inputs, cfg.hidden, cfg.outputs);
    // Operand extents per kind (latch, mult, adder, act): a bias
    // synapse after the widest fan-in, one stage fewer, one unit.
    int fanin = std::max(cfg.inputs, cfg.hidden);
    slotNeurons = std::max(cfg.hidden, cfg.outputs);
    slotIndices[static_cast<size_t>(UnitKind::WeightLatch)] = fanin + 1;
    slotIndices[static_cast<size_t>(UnitKind::Multiplier)] = fanin + 1;
    slotIndices[static_cast<size_t>(UnitKind::AdderStage)] = fanin;
    slotIndices[static_cast<size_t>(UnitKind::Activation)] = 1;
    size_t total = 0;
    for (size_t kl = 0; kl < 8; ++kl) {
        slotBase[kl] = total;
        total += static_cast<size_t>(slotNeurons * slotIndices[kl / 2]);
    }
    slotOf.assign(total, 0);
    units.resize(1);
    nonZeroEnd.assign(static_cast<size_t>(cfg.hidden + cfg.outputs), 0);
    constNeurons.assign(nonZeroEnd.size(), constNeuron(Fix16()));
    for (std::vector<Fix16> *v : {&laneX, &laneP})
        v->resize(kMaxLanes);
    for (std::vector<Acc24> *v : {&laneAcc, &laneAddend})
        v->resize(kMaxLanes);
    for (std::vector<uint64_t> *v : {&laneIn, &laneOut})
        v->resize(kMaxLanes);
}

HardwareBackend::~HardwareBackend() = default;

const Netlist &
HardwareBackend::unitNetlist(UnitKind kind) const
{
    switch (kind) {
      case UnitKind::WeightLatch:
        return *latchNl;
      case UnitKind::Multiplier:
        return *multNl;
      case UnitKind::AdderStage:
        return *addNl;
      case UnitKind::Activation:
        return *actNl;
      default:
        panic("bad unit kind");
    }
}

HardwareBackend::Unit &
HardwareBackend::enterUnit(const UnitSite &site)
{
    uint16_t ix = slotOf[slotIndex(site.kind, site.layer, site.neuron,
                                   site.index)];
    if (ix == 0) {
        dtann_assert(units.size() <= UINT16_MAX, "unit table full");
        ix = static_cast<uint16_t>(units.size());
        units.emplace_back().site = site;
        indexUnit(ix);
        installStale = runsStale = true;
    }
    return units[ix];
}

void
HardwareBackend::indexUnit(size_t ix)
{
    const UnitSite &s = units[ix].site;
    uint16_t v = static_cast<uint16_t>(ix);
    slotOf[slotIndex(s.kind, s.layer, s.neuron, s.index)] = v;
    // A shared unit executes its output-pass address as well.
    if (sharedPasses)
        slotOf[slotIndex(s.kind, Layer::Output, s.neuron, s.index)] = v;
}

void
HardwareBackend::compactUnits()
{
    units.erase(std::remove_if(units.begin() + 1, units.end(),
                               [](const Unit &u) {
                                   return !u.sim && !u.bypassed;
                               }),
                units.end());
    std::fill(slotOf.begin(), slotOf.end(), 0);
    for (size_t ix = 1; ix < units.size(); ++ix)
        indexUnit(ix);
    installStale = runsStale = true;
}

std::vector<InjectionRecord>
HardwareBackend::injectDefects(const UnitSite &pass_site, int count,
                               Rng &rng)
{
    // Key defects by the physical unit: a pass address given for a
    // shared (pass-multiplexed) unit lands on the same simulation
    // the forward paths look up.
    const UnitSite site = physicalSite(pass_site);
    std::shared_ptr<const Netlist> nl;
    CleanFn clean;
    switch (site.kind) {
      case UnitKind::WeightLatch:
        // Feedback netlist: no pruned/batched path to feed.
        nl = latchNl;
        break;
      case UnitKind::Multiplier:
        nl = multNl;
        clean = cleanMultiplierSigned(16);
        break;
      case UnitKind::AdderStage:
        nl = addNl;
        clean = cleanAdder(24, false);
        break;
      case UnitKind::Activation:
        nl = actNl;
        clean = cleanSigmoidUnit(logisticPwlTable());
        break;
    }
    Injection inj = injectTransistorDefects(*nl, count, rng);

    // Merge with any defects already present at this site; the
    // table holds the simulation itself, so replacing it in place
    // reaches every pass address.
    Unit &u = enterUnit(site);
    Injection next;
    if (u.sim)
        next = {u.sim->evaluator().faults(), u.sim->faultRecords()};
    next.merge(inj);
    u.sim = std::make_unique<OperatorSim>(nl, std::move(next),
                                          std::move(clean));
    return std::move(inj.records);
}

void
HardwareBackend::clearDefects()
{
    for (Unit &u : units)
        u.sim.reset();
    clearProbes();
    compactUnits();
}

std::vector<UnitSite>
HardwareBackend::faultySites() const
{
    std::vector<UnitSite> sites;
    for (const Unit &u : units)
        if (u.sim)
            sites.push_back(u.site);
    std::sort(sites.begin(), sites.end());
    return sites;
}

bool
HardwareBackend::isFaulty(const UnitSite &site) const
{
    return slot(site.kind, site.layer, site.neuron, site.index).sim !=
        nullptr;
}

// The scan path drives one vector through the datapath's own unit
// operations, so a probe reads the unit as a one-row forward would.

Fix16
HardwareBackend::bistMul(Layer layer, int neuron, int synapse, Fix16 w,
                         Fix16 x)
{
    Fix16 p;
    unitMulLanes(layer, neuron, synapse, w, &x, &p, 1);
    return p;
}

Acc24
HardwareBackend::bistAdd(Layer layer, int neuron, int stage, Acc24 a,
                         Acc24 b)
{
    unitAddLanes(layer, neuron, stage, &a, &b, 1);
    return a;
}

Fix16
HardwareBackend::bistAct(Layer layer, int neuron, Fix16 x)
{
    Fix16 y;
    unitActLanes(layer, neuron, &x, &y, 1);
    return y;
}

Fix16
HardwareBackend::bistLatchStore(Layer layer, int neuron, int synapse,
                                Fix16 d)
{
    return unitLatchStore(layer, neuron, synapse, d);
}

void
HardwareBackend::bypassUnit(const UnitSite &site)
{
    enterUnit(physicalSite(site)).bypassed = true;
}

void
HardwareBackend::clearBypasses()
{
    for (Unit &u : units)
        u.bypassed = false;
    compactUnits();
}

bool
HardwareBackend::isBypassed(const UnitSite &site) const
{
    return slot(site.kind, site.layer, site.neuron, site.index).bypassed;
}

std::vector<UnitSite>
HardwareBackend::bypassedSites() const
{
    std::vector<UnitSite> sites;
    for (const Unit &u : units)
        if (u.bypassed)
            sites.push_back(u.site);
    std::sort(sites.begin(), sites.end());
    return sites;
}

void
HardwareBackend::setActivationClamp(Layer layer, Fix16 lo, Fix16 hi)
{
    dtann_assert(static_cast<int16_t>(lo.bits()) <=
                     static_cast<int16_t>(hi.bits()),
                 "clamp window is empty");
    ActivationClamp &c = clamps[static_cast<size_t>(layer)];
    c.enabled = true;
    c.lo = lo;
    c.hi = hi;
}

void
HardwareBackend::clearActivationClamps()
{
    clamps[0] = ActivationClamp();
    clamps[1] = ActivationClamp();
    clampHitCount = 0;
}

const ActivationClamp &
HardwareBackend::activationClamp(Layer layer) const
{
    return clamps[static_cast<size_t>(layer)];
}

Fix16
HardwareBackend::clampValue(Layer layer, Fix16 x)
{
    const ActivationClamp &c = clamps[static_cast<size_t>(layer)];
    if (!c.enabled)
        return x;
    int16_t v = static_cast<int16_t>(x.bits());
    if (v < static_cast<int16_t>(c.lo.bits())) {
        ++clampHitCount;
        return c.lo;
    }
    if (v > static_cast<int16_t>(c.hi.bits())) {
        ++clampHitCount;
        return c.hi;
    }
    return x;
}

DeviationProbe
HardwareBackend::probe(const UnitSite &site) const
{
    // Merging into an empty stat copies, so a unit that serves one
    // pass reports that pass's stream bit for bit; the merge is
    // order-independent, so the result does not depend on how the
    // passes interleaved.
    DeviationProbe merged;
    for (const DeviationProbe &p :
         slot(site.kind, site.layer, site.neuron, site.index).probes)
        merged.amplitude.merge(p.amplitude);
    return merged;
}

void
HardwareBackend::clearProbes()
{
    for (Unit &u : units)
        u.probes[0] = u.probes[1] = DeviationProbe();
}

Fix16
HardwareBackend::unitLatchStore(Layer layer, int neuron, int synapse,
                                Fix16 d)
{
    Unit &u = unitAt(UnitKind::WeightLatch, layer, neuron, synapse);
    if (u.bypassed)
        return Fix16(); // latch disconnected: weight reads as zero
    if (!u.sim)
        return d;
    // Open the latch (EN=1) with D applied, then close it (EN=0).
    uint64_t bits = static_cast<uint64_t>(d.bits());
    uint64_t q = u.sim->applyPair(bits | (1ull << 16), bits);
    Fix16 stored = Fix16::fromRaw(static_cast<int16_t>(q & 0xffff));
    u.probes[static_cast<size_t>(layer)].amplitude.add(
        std::abs(stored.toDouble() - d.toDouble()));
    return stored;
}

void
HardwareBackend::unitMulLanes(Layer layer, int neuron, int synapse,
                              Fix16 w, const Fix16 *x, Fix16 *out,
                              size_t lanes)
{
    Unit &u = unitAt(UnitKind::Multiplier, layer, neuron, synapse);
    if (u.bypassed) {
        for (size_t l = 0; l < lanes; ++l)
            out[l] = Fix16(); // product gated to zero
        return;
    }
    if (!u.sim) {
        for (size_t l = 0; l < lanes; ++l)
            out[l] = Fix16::hwMul(w, x[l]);
        return;
    }
    uint64_t *in = laneIn.data(), *product = laneOut.data();
    for (size_t l = 0; l < lanes; ++l)
        in[l] = static_cast<uint64_t>(w.bits()) |
            (static_cast<uint64_t>(x[l].bits()) << 16);
    u.sim->applyLanes(in, product, lanes);
    DeviationProbe &pr = u.probes[static_cast<size_t>(layer)];
    // Probe updates in lane (= row) order: the Welford accumulator
    // is order-dependent, and bit-identity with one-row calls
    // requires the same per-site sequence.
    for (size_t l = 0; l < lanes; ++l) {
        Fix16 clean = Fix16::hwMul(w, x[l]);
        Fix16 got = Fix16::fromRaw(static_cast<int16_t>(
            (product[l] >> Fix16::fracBits) & 0xffff));
        pr.amplitude.add(std::abs(got.toDouble() - clean.toDouble()));
        out[l] = got;
    }
}

void
HardwareBackend::unitAddLanes(Layer layer, int neuron, int stage,
                              Acc24 *acc, const Acc24 *b, size_t lanes)
{
    Unit &u = unitAt(UnitKind::AdderStage, layer, neuron, stage);
    if (u.bypassed)
        return; // stage skipped: accumulator passes through
    if (!u.sim) {
        for (size_t l = 0; l < lanes; ++l)
            acc[l] = Acc24::hwAdd(acc[l], b[l]);
        return;
    }
    uint64_t *in = laneIn.data(), *sum = laneOut.data();
    for (size_t l = 0; l < lanes; ++l)
        in[l] = static_cast<uint64_t>(acc[l].bits()) |
            (static_cast<uint64_t>(b[l].bits()) << 24);
    u.sim->applyLanes(in, sum, lanes);
    DeviationProbe &pr = u.probes[static_cast<size_t>(layer)];
    for (size_t l = 0; l < lanes; ++l) {
        Acc24 clean = Acc24::hwAdd(acc[l], b[l]);
        uint32_t u = static_cast<uint32_t>(sum[l] & 0xffffffull);
        int32_t raw = (u & 0x800000u)
            ? static_cast<int32_t>(u | 0xff000000u)
            : static_cast<int32_t>(u);
        Acc24 got = Acc24::fromRaw(raw);
        pr.amplitude.add(std::abs(got.toDouble() - clean.toDouble()));
        acc[l] = got;
    }
}

void
HardwareBackend::unitActLanes(Layer layer, int neuron, const Fix16 *x,
                              Fix16 *out, size_t lanes)
{
    Unit &u = unitAt(UnitKind::Activation, layer, neuron, 0);
    if (u.bypassed) {
        for (size_t l = 0; l < lanes; ++l)
            out[l] = Fix16(); // neuron silenced
        return;
    }
    const PwlTable &table = logisticPwlTable();
    if (!u.sim) {
        for (size_t l = 0; l < lanes; ++l)
            out[l] = sigmoidUnitRef(table, x[l]);
        return;
    }
    uint64_t *in = laneIn.data(), *y = laneOut.data();
    for (size_t l = 0; l < lanes; ++l)
        in[l] = static_cast<uint64_t>(x[l].bits());
    u.sim->applyLanes(in, y, lanes);
    DeviationProbe &pr = u.probes[static_cast<size_t>(layer)];
    for (size_t l = 0; l < lanes; ++l) {
        Fix16 clean = sigmoidUnitRef(table, x[l]);
        Fix16 got =
            Fix16::fromRaw(static_cast<int16_t>(y[l] & 0xffff));
        pr.amplitude.add(std::abs(got.toDouble() - clean.toDouble()));
        out[l] = got;
    }
}

void
HardwareBackend::planInstall()
{
    std::fill(hidW.begin(), hidW.end(), Fix16());
    std::fill(outW.begin(), outW.end(), Fix16());
    latchReplay.clear();
    for (Layer layer : {Layer::Hidden, Layer::Output}) {
        bool h = layer == Layer::Hidden;
        int neurons = h ? cfg.hidden : cfg.outputs;
        int used = h ? logical.hidden : logical.outputs;
        int fanin = fanIn(layer);
        int used_fanin = h ? logical.inputs : logical.hidden;
        for (int n = 0; n < neurons; ++n) {
            const uint16_t *latch = slotRow(UnitKind::WeightLatch, layer, n);
            for (int i = 0; i <= fanin; ++i) {
                if (!latch[i])
                    continue;
                // The bias synapse is last in both the logical and
                // the physical row.
                ptrdiff_t src = -1;
                if (n < used && (i < used_fanin || i == fanin))
                    src = static_cast<ptrdiff_t>(n) * (used_fanin + 1) +
                        std::min(i, used_fanin);
                latchReplay.push_back(
                    {layer, n, i,
                     static_cast<size_t>(n) * static_cast<size_t>(fanin + 1) +
                         static_cast<size_t>(i),
                     src});
            }
        }
    }
    installStale = false;
}

void
HardwareBackend::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == logical, "weight topology mismatch");
    std::span<const double> hid = w.stage(0), out = w.stage(1);
    if (installStale)
        planInstall();
    // Both stages quantized in one pass each; the latch replay below
    // reads the same words.
    stageWords.resize(hid.size() + out.size());
    const Fix16 *quant[2] = {stageWords.data(),
                             stageWords.data() + hid.size()};
    Fix16::fromDoubles(hid.data(), stageWords.data(), hid.size());
    Fix16::fromDoubles(out.data(), stageWords.data() + hid.size(),
                       out.size());
    for (Layer layer : {Layer::Hidden, Layer::Output}) {
        bool h = layer == Layer::Hidden;
        int used = h ? logical.hidden : logical.outputs;
        int used_fanin = h ? logical.inputs : logical.hidden;
        int fanin = fanIn(layer);
        int neurons = h ? cfg.hidden : cfg.outputs;
        const Fix16 *src = quant[static_cast<size_t>(layer)];
        Fix16 *dst = h ? hidW.data() : outW.data();
        int *bound = &nonZeroEnd[neuronRow(layer, 0)];
        for (int n = 0; n < used; ++n) {
            std::copy_n(src, used_fanin, dst);
            dst[fanin] = src[used_fanin];
            src += used_fanin + 1;
            dst += fanin + 1;
        }
        // Clean padding words hold planInstall()'s zero.
        std::fill(bound, bound + used, used_fanin);
        std::fill(bound + used, bound + neurons, 0);
    }
    // The non-clean latches overwrite their words in the order a
    // full-array sweep visits them: shared systolic latches and
    // every deviation probe see the historic store sequence.
    for (const LatchReplay &r : latchReplay) {
        Fix16 q = r.src < 0 ? Fix16()
                            : quant[static_cast<size_t>(r.layer)][r.src];
        Fix16 stored = unitLatchStore(r.layer, r.neuron, r.index, q);
        (r.layer == Layer::Hidden ? hidW : outW)[r.dst] = stored;
        // A faulty latch may store a non-zero word past the task's
        // fan-in, a padding neuron's included.
        int &bound = nonZeroEnd[neuronRow(r.layer, r.neuron)];
        if (stored.bits() != 0 && r.index < fanIn(r.layer))
            bound = std::max(bound, r.index + 1);
    }
}

void
HardwareBackend::loadPhysicalRow(Layer layer, int neuron,
                                 std::span<const Fix16> weights)
{
    bool h = layer == Layer::Hidden;
    int fanin = fanIn(layer);
    dtann_assert(neuron >= 0 && neuron < (h ? cfg.hidden : cfg.outputs),
                 "physical neuron index out of range");
    dtann_assert(static_cast<int>(weights.size()) == fanin + 1,
                 "weight row arity mismatch");
    const uint16_t *latch = slotRow(UnitKind::WeightLatch, layer, neuron);
    Fix16 *dst = (h ? hidW.data() : outW.data()) +
        static_cast<size_t>(neuron) * static_cast<size_t>(fanin + 1);
    for (int i = 0; i <= fanin; ++i) {
        Fix16 d = weights[static_cast<size_t>(i)];
        dst[i] = latch[i] ? unitLatchStore(layer, neuron, i, d) : d;
    }
    // Rescan the row for its last non-zero word before the bias, the
    // bound neuronSumLanes() stops at.
    int end = fanin;
    while (end > 0 && dst[end - 1].bits() == 0)
        --end;
    nonZeroEnd[neuronRow(layer, neuron)] = end;
    // A clean padding word may no longer be zero.
    installStale = true;
}

void
HardwareBackend::forwardBatchInto(std::span<const std::vector<double>> inputs,
                                  std::span<Activations> out)
{
    dtann_assert(out.size() == inputs.size(),
                 "one activation record per input row");
    // A stateful PE shared by both passes must see each row's hidden
    // and output operations back to back: a chunk of one row is that
    // schedule. (A one-row call, the training path, skips reading the
    // lane-width knob.)
    size_t rows = inputs.size();
    size_t width =
        rows > 1 && (!sharedPasses || batchPure()) ? batchLaneWidth() : 1;
    size_t chunk = std::min(width, rows);
    size_t n_in = static_cast<size_t>(cfg.inputs);
    size_t n_hid = static_cast<size_t>(cfg.hidden);
    size_t n_out = static_cast<size_t>(cfg.outputs);
    // Padding inputs are never written below, so they stay zero.
    batchIn.assign(chunk * n_in, Fix16());
    batchHid.resize(chunk * n_hid);
    batchOut.resize(chunk * n_out);
    batchInPtr.resize(chunk);
    batchHidIn.resize(chunk);
    batchHidOut.resize(chunk);
    batchOutPtr.resize(chunk);
    for (size_t l = 0; l < chunk; ++l) {
        batchInPtr[l] = &batchIn[l * n_in];
        batchHidIn[l] = batchHidOut[l] = &batchHid[l * n_hid];
        batchOutPtr[l] = &batchOut[l * n_out];
    }

    size_t hid = static_cast<size_t>(logical.hidden);
    size_t outs = static_cast<size_t>(logical.outputs);
    for (size_t pos = 0; pos < rows; pos += width) {
        size_t lanes = std::min(width, rows - pos);
        for (size_t l = 0; l < lanes; ++l) {
            const std::vector<double> &row = inputs[pos + l];
            dtann_assert(static_cast<int>(row.size()) == logical.inputs,
                         "logical input arity mismatch");
            Fix16::fromDoubles(row.data(), &batchIn[l * n_in], row.size());
        }
        runLayerLanes(Layer::Hidden, batchInPtr, batchHidOut, lanes);
        runLayerLanes(Layer::Output, batchHidIn, batchOutPtr, lanes);
        for (size_t l = 0; l < lanes; ++l) {
            Activations &act = out[pos + l];
            act.resize(hid, outs);
            for (size_t j = 0; j < hid; ++j)
                act.hidden()[j] = batchHid[l * n_hid + j].toDouble();
            for (size_t k = 0; k < outs; ++k)
                act.output()[k] = batchOut[l * n_out + k].toDouble();
        }
    }
}

void
HardwareBackend::runLayerLanes(Layer layer,
                               const std::vector<const Fix16 *> &in,
                               const std::vector<Fix16 *> &out,
                               size_t lanes)
{
    dtann_assert(lanes >= 1 && lanes <= kMaxLanes,
                 "lane count out of range");
    dtann_assert(in.size() >= lanes && out.size() >= lanes,
                 "lane pointer arity mismatch");
    if (runsStale)
        planRuns();
    bool hid = layer == Layer::Hidden;
    const Fix16 *weights = hid ? hidW.data() : outW.data();
    Acc24 *sums = nullptr;
    if (hid) {
        hidSumsLanes.resize(lanes * static_cast<size_t>(cfg.hidden));
        sums = hidSumsLanes.data();
    }
    size_t stride = static_cast<size_t>(fanIn(layer) + 1);
    int neurons = hid ? cfg.hidden : cfg.outputs;
    Acc24 *acc = laneAcc.data();
    for (int n = 0; n < neurons; ++n) {
        size_t un = static_cast<size_t>(n);
        neuronLanes(layer, n, weights + un * stride, in, acc, out, lanes);
        if (sums)
            for (size_t l = 0; l < lanes; ++l)
                sums[l * static_cast<size_t>(neurons) + un] = acc[l];
    }
}

void
HardwareBackend::neuronLanes(Layer layer, int neuron, const Fix16 *w,
                             const std::vector<const Fix16 *> &in,
                             Acc24 *acc, const std::vector<Fix16 *> &out,
                             size_t lanes)
{
    size_t row = neuronRow(layer, neuron);
    size_t un = static_cast<size_t>(neuron);
    // The clamp sits after the activation unit, in lane (= row)
    // order, on the datapath only: bistAct() reads the unit raw.
    if (neuronClean[row]) {
        Fix16 bias = w[fanIn(layer)];
        size_t bound = static_cast<size_t>(nonZeroEnd[row]);
        if (bound == 0) {
            // Synapse 0 and the run multiply zero words, so the chain
            // sums the bias product alone: the neuron's sum and
            // output are the same for every row (padding neurons).
            ConstNeuron &c = constNeurons[row];
            if (c.bias != bias)
                c = constNeuron(bias);
            // One hit per lane when the window saturates the output.
            Fix16 y = clampValue(layer, c.out);
            if (y != c.out)
                clampHitCount += lanes - 1;
            for (size_t l = 0; l < lanes; ++l) {
                acc[l] = c.sum;
                out[l][un] = y;
            }
            return;
        }
        // Every unit clean: the chain is one dot product over the
        // words below the bound plus the bias product, wrapped once
        // (DESIGN.md §14 "Clean neurons").
        uint32_t b = static_cast<uint32_t>(
            Fix16::hwMul(bias, Fix16::fromDouble(1.0)).raw());
        for (size_t l = 0; l < lanes; ++l)
            acc[l] = Acc24::fromRaw(
                static_cast<int32_t>(Fix16::hwDot(w, in[l], bound) + b));
    } else {
        neuronSumLanes(layer, neuron, w, in, acc, lanes);
    }
    if (unitClean(UnitKind::Activation, layer, neuron, 0)) {
        // The clean PWL unit, inline.
        const PwlTable &table = logisticPwlTable();
        for (size_t l = 0; l < lanes; ++l)
            out[l][un] =
                clampValue(layer, sigmoidUnitRef(table, acc[l].toFix16Sat()));
        return;
    }
    // neuronSumLanes() is done with laneX/laneP when it returns.
    Fix16 *x = laneX.data(), *y = laneP.data();
    for (size_t l = 0; l < lanes; ++l)
        x[l] = acc[l].toFix16Sat();
    unitActLanes(layer, neuron, x, y, lanes);
    for (size_t l = 0; l < lanes; ++l)
        out[l][un] = clampValue(layer, y[l]);
}

HardwareBackend::ConstNeuron
HardwareBackend::constNeuron(Fix16 bias)
{
    // neuronSumLanes()'s run with no word below the bias: the bias
    // product alone, as a 32-bit sum wrapped once.
    Acc24 sum =
        Acc24::fromRaw(Fix16::hwMul(bias, Fix16::fromDouble(1.0)).raw());
    return {bias, sum, sigmoidUnitRef(logisticPwlTable(), sum.toFix16Sat())};
}

void
HardwareBackend::planRuns()
{
    cleanRuns.clear();
    runStart.clear();
    neuronClean.clear();
    for (Layer layer : {Layer::Hidden, Layer::Output}) {
        int fanin = fanIn(layer);
        int neurons = layer == Layer::Hidden ? cfg.hidden : cfg.outputs;
        for (int n = 0; n < neurons; ++n) {
            runStart.push_back(static_cast<uint32_t>(cleanRuns.size()));
            const uint16_t *mul = slotRow(UnitKind::Multiplier, layer, n);
            const uint16_t *add = slotRow(UnitKind::AdderStage, layer, n);
            for (int i = 1; i <= fanin;) {
                int end = i;
                while (end <= fanin && (mul[end] | add[end - 1]) == 0)
                    ++end;
                if (end > i)
                    cleanRuns.push_back({i, end});
                i = end + 1; // synapse end is not clean
            }
            // One run over every synapse after the first.
            bool all_runs = cleanRuns.size() == runStart.back() + 1 &&
                cleanRuns.back().begin == 1 &&
                cleanRuns.back().end == fanin + 1;
            neuronClean.push_back(
                all_runs && mul[0] == 0 &&
                unitClean(UnitKind::Activation, layer, n, 0));
        }
    }
    runStart.push_back(static_cast<uint32_t>(cleanRuns.size()));
    runsStale = false;
}

void
HardwareBackend::neuronSumLanes(Layer layer, int neuron, const Fix16 *w,
                                const std::vector<const Fix16 *> &in,
                                Acc24 *acc, size_t lanes)
{
    const Fix16 one = Fix16::fromDouble(1.0);
    int fanin = fanIn(layer);
    size_t row = neuronRow(layer, neuron);
    const CleanRun *run = cleanRuns.data() + runStart[row];
    const CleanRun *runs_end = cleanRuns.data() + runStart[row + 1];
    int bound = nonZeroEnd[row];
    Fix16 *x = laneX.data(), *p = laneP.data();
    Acc24 *addend = laneAddend.data();
    for (size_t l = 0; l < lanes; ++l)
        x[l] = in[l][0];
    unitMulLanes(layer, neuron, 0, w[0], x, p, lanes);
    for (size_t l = 0; l < lanes; ++l)
        acc[l] = Acc24::fromFix16(p[l]);
    for (int i = 1; i <= fanin;) {
        if (run != runs_end && run->begin == i) {
            // Synapses i..end-1 have a clean multiplier and a clean
            // adder stage i - 1: native arithmetic, one lane at a
            // time (no unit sees them, so their order across lanes
            // is free). Acc24::hwAdd wraps modulo 2^24, so the run
            // sums in 32-bit unsigned arithmetic (whose low 24 bits
            // are the same) and wraps once. Every word from the
            // row's bound to the bias is zero, so the padding past
            // the task's fan-in is never visited.
            int end = run->end, stop = std::min(end, bound);
            size_t len = stop > i ? static_cast<size_t>(stop - i) : 0;
            uint32_t bias = end > fanin
                ? static_cast<uint32_t>(Fix16::hwMul(w[fanin], one).raw())
                : 0;
            for (size_t l = 0; l < lanes; ++l) {
                uint32_t a = static_cast<uint32_t>(acc[l].raw()) + bias +
                    Fix16::hwDot(w + i, in[l] + i, len);
                acc[l] = Acc24::fromRaw(static_cast<int32_t>(a));
            }
            i = end;
            ++run;
            continue;
        }
        for (size_t l = 0; l < lanes; ++l)
            x[l] = i == fanin ? one : in[l][i];
        unitMulLanes(layer, neuron, i, w[i], x, p, lanes);
        for (size_t l = 0; l < lanes; ++l)
            addend[l] = Acc24::fromFix16(p[l]);
        unitAddLanes(layer, neuron, i - 1, acc, addend, lanes);
        ++i;
    }
}

bool
HardwareBackend::batchPure() const
{
    for (const Unit &u : units)
        if (u.sim && !u.sim->batched())
            return false;
    return true;
}

SimCounters
HardwareBackend::simCounters() const
{
    SimCounters c;
    for (const Unit &u : units)
        if (u.sim)
            c.merge(u.sim->counters());
    return c;
}

std::unique_ptr<HardwareBackend>
makeBackend(BackendKind kind, const AcceleratorConfig &config,
            MlpTopology logical)
{
    switch (kind) {
      case BackendKind::Spatial:
        return std::make_unique<SpatialBackend>(config, logical);
      case BackendKind::Systolic:
        return std::make_unique<SystolicBackend>(config, logical);
      default:
        panic("bad backend kind");
    }
}

} // namespace dtann

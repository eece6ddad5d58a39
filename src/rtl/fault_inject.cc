#include "rtl/fault_inject.hh"

#include <map>
#include <span>

#include "common/logging.hh"
#include "transistor/reconstruct.hh"
#include "transistor/switch_network.hh"

namespace dtann {

namespace {

/**
 * The usable fault sites of each cell group, groups without any
 * dropped (e.g., cells made only of constants): group k (ascending
 * tag) is gates[start[k] .. start[k + 1]), in gate order. Laid out
 * flat by a counting sort, so building it per injection costs two
 * passes over the gates and a few allocations.
 */
struct SiteGroups
{
    std::vector<uint32_t> gates;
    std::vector<uint32_t> start;

    size_t size() const { return start.size() - 1; }

    std::span<const uint32_t>
    group(size_t k) const
    {
        return {gates.data() + start[k], start[k + 1] - start[k]};
    }
};

SiteGroups
groupSites(const Netlist &nl)
{
    size_t n_groups = nl.numGroups();
    std::vector<uint32_t> offset(n_groups + 1, 0);
    for (uint32_t gi = 0; gi < nl.numGates(); ++gi)
        if (hasSchematic(nl.gate(gi).kind))
            ++offset[nl.gate(gi).group + 1u];
    for (size_t t = 0; t < n_groups; ++t)
        offset[t + 1] += offset[t];

    SiteGroups out;
    out.gates.resize(offset[n_groups]);
    std::vector<uint32_t> fill(offset.begin(), offset.end() - 1);
    for (uint32_t gi = 0; gi < nl.numGates(); ++gi)
        if (hasSchematic(nl.gate(gi).kind))
            out.gates[fill[nl.gate(gi).group]++] = gi;
    for (size_t t = 0; t < n_groups; ++t)
        if (offset[t] != offset[t + 1])
            out.start.push_back(offset[t]);
    out.start.push_back(offset[n_groups]);
    return out;
}

/** Pick a gate within a group, weighted by transistor count. */
uint32_t
pickGate(const Netlist &nl, std::span<const uint32_t> sites, Rng &rng)
{
    size_t total = 0;
    for (uint32_t gi : sites)
        total += static_cast<size_t>(gateTransistorCount(nl.gate(gi).kind));
    size_t draw = rng.nextUint(total);
    for (uint32_t gi : sites) {
        size_t t =
            static_cast<size_t>(gateTransistorCount(nl.gate(gi).kind));
        if (draw < t)
            return gi;
        draw -= t;
    }
    panic("pickGate: weighted draw out of range");
}

} // namespace

Injection
injectTransistorDefects(const Netlist &nl, int count, Rng &rng,
                        const DefectMix &mix)
{
    SiteGroups groups = groupSites(nl);
    dtann_assert(groups.size() > 0, "netlist has no fault sites");

    // Gather per-gate defect lists, then reconstruct each touched
    // gate once with all of its defects.
    std::map<uint32_t, std::vector<Defect>> per_gate;
    Injection inj;
    for (int k = 0; k < count; ++k) {
        auto sites = groups.group(rng.nextUint(groups.size()));
        uint32_t gi = pickGate(nl, sites, rng);
        Defect d = randomDefect(nl.gate(gi).kind, rng, mix);
        per_gate[gi].push_back(d);
        inj.records.push_back({gi, std::string(gateName(nl.gate(gi).kind)) +
                                       ":" + d.describe()});
    }
    for (const auto &[gi, defects] : per_gate) {
        ReconstructedGate rec =
            reconstruct(nl.gate(gi).kind, defects);
        inj.faults.overrides[gi] = rec.function;
        if (rec.delayed)
            inj.faults.delayed.insert(gi);
    }
    return inj;
}

Injection
injectGateLevelFaults(const Netlist &nl, int count, Rng &rng)
{
    SiteGroups groups = groupSites(nl);
    dtann_assert(groups.size() > 0, "netlist has no fault sites");

    Injection inj;
    for (int k = 0; k < count; ++k) {
        auto sites = groups.group(rng.nextUint(groups.size()));
        uint32_t gi = sites[rng.nextUint(sites.size())];
        int arity = nl.gate(gi).arity();
        // Pick an input pin, or the output, uniformly.
        int pin = static_cast<int>(rng.nextUint(
            static_cast<uint64_t>(arity) + 1));
        StuckAtFault f;
        f.gate = gi;
        f.input = pin == arity ? -1 : static_cast<int8_t>(pin);
        f.value = rng.nextBool();
        inj.faults.stuckAt.push_back(f);
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s:stuck%s@%d",
                      gateName(nl.gate(gi).kind), f.value ? "1" : "0",
                      static_cast<int>(f.input));
        inj.records.push_back({gi, buf});
    }
    return inj;
}

} // namespace dtann

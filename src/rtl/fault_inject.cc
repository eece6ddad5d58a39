#include "rtl/fault_inject.hh"

#include <map>
#include <optional>
#include <span>

#include "circuit/cell_index.hh"
#include "common/logging.hh"
#include "transistor/reconstruct.hh"

namespace dtann {

namespace {

/**
 * The fault sites of @p nl grouped by cell: the netlist's own cell
 * index, or one built into @p local for a hand-built netlist.
 */
const CellIndex &
siteIndex(const Netlist &nl, std::optional<CellIndex> &local)
{
    if (const CellIndex *index = nl.cellIndex())
        return *index;
    return local.emplace(nl);
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
    std::optional<CellIndex> local;
    const CellIndex &groups = siteIndex(nl, local);
    dtann_assert(groups.numSiteGroups() > 0, "netlist has no fault sites");

    // Gather per-gate defect lists, then reconstruct each touched
    // gate once with all of its defects.
    std::map<uint32_t, std::vector<Defect>> per_gate;
    Injection inj;
    for (int k = 0; k < count; ++k) {
        auto sites = groups.siteGroup(rng.nextUint(groups.numSiteGroups()));
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
    std::optional<CellIndex> local;
    const CellIndex &groups = siteIndex(nl, local);
    dtann_assert(groups.numSiteGroups() > 0, "netlist has no fault sites");

    Injection inj;
    for (int k = 0; k < count; ++k) {
        auto sites = groups.siteGroup(rng.nextUint(groups.numSiteGroups()));
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

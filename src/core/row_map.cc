#include "core/row_map.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

double
medianVote(std::vector<double> &copy_vals)
{
    size_t n = copy_vals.size();
    dtann_assert(n >= 1, "vote needs at least one copy");
    std::sort(copy_vals.begin(), copy_vals.end());
    if (n % 2 == 1)
        return copy_vals[n / 2];
    return 0.5 * (copy_vals[n / 2 - 1] + copy_vals[n / 2]);
}

MlpTopology
fullRowTopology(MlpTopology logical, const AcceleratorConfig &cfg)
{
    return {logical.inputs, logical.hidden, cfg.outputs};
}

RowPlan
sparePlan(MlpTopology logical, int copies)
{
    dtann_assert(copies >= 1, "a spare plan needs at least one copy");
    RowPlan plan(static_cast<size_t>(logical.outputs));
    for (int k = 0; k < logical.outputs; ++k)
        for (int c = 0; c < copies; ++c)
            plan[static_cast<size_t>(k)].push_back(k + c * logical.outputs);
    return plan;
}

RowMappedMlp::RowMappedMlp(HardwareBackend &a, MlpTopology logical_topo,
                           RowPlan row_plan)
    : accel(a), logical(logical_topo), plan(std::move(row_plan)),
      phys(accel.mapping())
{
    int rows = accel.config().outputs;
    dtann_assert(accel.mapping() == fullRowTopology(logical, accel.config()),
                 "accelerator must be mapped with fullRowTopology()");
    dtann_assert(static_cast<int>(plan.size()) == logical.outputs,
                 "plan arity mismatch");
    std::vector<int> all;
    for (const std::vector<int> &group : plan) {
        dtann_assert(!group.empty(), "plan group is empty");
        for (int row : group) {
            dtann_assert(row >= 0 && row < rows,
                         "plan row %d out of range: does not fit the %d "
                         "physical output rows",
                         row, rows);
            all.push_back(row);
        }
    }
    std::sort(all.begin(), all.end());
    dtann_assert(std::adjacent_find(all.begin(), all.end()) == all.end(),
                 "plan groups share a physical row");
}

int
RowMappedMlp::spareRowsUsed() const
{
    int n = 0;
    for (const std::vector<int> &group : plan)
        for (int row : group)
            n += row >= logical.outputs;
    return n;
}

void
RowMappedMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == logical, "weight topology mismatch");
    // Rows outside the plan keep the zeros phys was built with.
    for (int j = 0; j < logical.hidden; ++j)
        for (int i = 0; i <= logical.inputs; ++i)
            phys.at(0, j, i) = w.at(0, j, i);
    for (int k = 0; k < logical.outputs; ++k)
        for (int row : plan[static_cast<size_t>(k)])
            for (int j = 0; j <= logical.hidden; ++j)
                phys.at(1, row, j) = w.at(1, k, j);
    accel.setWeights(phys);
}

Activations
RowMappedMlp::vote(Activations phys) const
{
    Activations act(0, plan.size());
    act.hidden() = std::move(phys.hidden());
    std::vector<double> copies;
    for (size_t k = 0; k < plan.size(); ++k) {
        copies.clear();
        for (int row : plan[k])
            copies.push_back(phys.output()[static_cast<size_t>(row)]);
        act.output()[k] = medianVote(copies);
    }
    return act;
}

std::vector<Activations>
RowMappedMlp::forwardBatch(std::span<const std::vector<double>> inputs)
{
    std::vector<Activations> acts = accel.forwardBatch(inputs);
    for (Activations &act : acts)
        act = vote(std::move(act));
    return acts;
}

} // namespace dtann

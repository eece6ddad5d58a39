/**
 * @file
 * Logical-to-physical output-row mapping: the one model behind every
 * spare-output-neuron mitigation (paper Section VI-C: "simply add
 * spare (redundant) output neurons ... as technology scales down,
 * the latter method will become more area efficient").
 *
 * A *plan* lists, per logical output k, the physical output rows
 * that compute it. Every row of a group carries logical row k's
 * weights, and a small key-logic voter merges the group with
 * medianVote(): a group of one is a plain copy, two average
 * (halving a defect's reach), three take the median (rejecting a
 * single broken copy outright, stuck-high outputs included). Plans
 * differ only in which rows they pick:
 *
 *  - sparePlan(): blind copies of every output, {k, k + L, ...};
 *  - planOutputRemap() (mitigate/): a diagnosed-faulty row moves to
 *    a clean spare row;
 *  - planOutputReplication() (mitigate/): a diagnosed-faulty row
 *    keeps its place and recruits clean spare rows to vote with.
 */

#ifndef DTANN_CORE_ROW_MAP_HH
#define DTANN_CORE_ROW_MAP_HH

#include "core/backend.hh"

namespace dtann {

/** Physical output rows per logical output: entry k lists the rows
 *  that compute logical output k. */
using RowPlan = std::vector<std::vector<int>>;

/**
 * The key-logic copy-combine rule: odd copy counts take the exact
 * median — rejecting any single broken copy, including stuck-high
 * outputs an averager cannot outvote — and even counts take the
 * mean of the middle pair (a plain average for 2 copies). Sorts
 * @p copy_vals in place.
 */
double medianVote(std::vector<double> &copy_vals);

/**
 * The topology every plan maps the array with: the logical inputs
 * and hidden layer, and every physical output row, so a plan can
 * address any row.
 */
MlpTopology fullRowTopology(MlpTopology logical,
                            const AcceleratorConfig &cfg);

/** Blind sparing: logical output k on rows k, k + L, ..., one per
 *  copy (L = logical.outputs). */
RowPlan sparePlan(MlpTopology logical, int copies);

/** ForwardModel voting each logical output over its plan group. */
class RowMappedMlp : public ForwardModel
{
  public:
    /**
     * @param accel physical array, mapped with fullRowTopology()
     * @param logical the task network
     * @param plan one non-empty group per logical output; rows must
     *        be distinct across all groups and fit the physical
     *        output rows
     */
    RowMappedMlp(HardwareBackend &accel, MlpTopology logical,
                 RowPlan plan);

    DeepTopology topology() const override { return logical; }

    /** Write logical output row k onto every row of its group (rows
     *  outside the plan hold zero weights). */
    void setWeights(const DeepWeights &w) override;

    /** Forward through the backend, voting each row's logical
     *  outputs over their groups. */
    void forwardBatchInto(std::span<const std::vector<double>> inputs,
                          std::span<Activations> out) override;

    /** Work counters of the backing array's faulty units. */
    SimCounters simCounters() const override
    {
        return accel.simCounters();
    }

    /** Plan rows at or beyond logical.outputs: the spare rows in
     *  use. */
    int spareRowsUsed() const;

  private:
    HardwareBackend &accel;
    MlpTopology logical;
    RowPlan plan;
    /** Physical weights setWeights() writes, reused across calls. */
    DeepWeights phys;
    /** forwardBatchInto() scratch, reused across calls: the
     *  backend's physical records and one group's copies. */
    std::vector<Activations> physActs;
    std::vector<double> copies;

    /** Vote one row's physical activations @p from into the logical
     *  record @p to. */
    void vote(const Activations &from, Activations &to);
};

} // namespace dtann

#endif // DTANN_CORE_ROW_MAP_HH

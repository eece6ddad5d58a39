/**
 * @file
 * Back-propagation trainer (companion-core training).
 *
 * The trainer owns double-precision shadow weights and updates them
 * with classic online back-propagation (learning rate + momentum,
 * MSE objective) through an arbitrary stack of sigmoid layers — the
 * 2-layer paper networks (two stages) and the Section VII deep
 * stacks share this one implementation, its one entry point
 * (train()) and its one weight type (DeepWeights). Forward
 * activations come from a ForwardModel — the float reference, the
 * fixed-point model, or the (possibly defective) accelerator — so
 * retraining silences faulty elements exactly as the paper
 * describes. Evaluation helpers (accuracy, MSE) live in
 * ann/train_core.hh and run batch-first.
 */

#ifndef DTANN_ANN_TRAINER_HH
#define DTANN_ANN_TRAINER_HH

#include "ann/train_core.hh"

namespace dtann {

/** Training hyper-parameters (paper Table I axes). */
struct Hyper
{
    int hidden = 10;
    int epochs = 100;
    double learningRate = 0.1;
    double momentum = 0.1;
};

/**
 * One synapse frozen at zero for a whole training run (fault-aware
 * pruning, Zhang et al. arXiv:1802.04657): stage @p stage maps
 * layer stage to stage+1, @p neuron is the target unit, @p input
 * the source unit (the layer width addresses the bias synapse).
 */
struct PrunedSynapse
{
    size_t stage;
    int neuron;
    int input;

    bool operator==(const PrunedSynapse &o) const = default;
};

/** Online back-propagation over an abstract forward path. */
class Trainer
{
  public:
    /**
     * @param hyper training hyper-parameters (hidden count must
     *        match the model's topology)
     */
    explicit Trainer(Hyper hyper) : hyper(hyper) {}

    /**
     * Train @p model through its full layer stack
     * (model.topology()).
     *
     * @param model forward path; receives weight updates each step
     * @param train_set training examples (normalized to [0, 1])
     * @param rng order shuffling and weight initialization
     * @param init warm-start weights (retraining), or null for
     *        random initialization
     * @return the final shadow weights
     */
    DeepWeights train(ForwardModel &model, const Dataset &train_set,
                      Rng &rng, const DeepWeights *init = nullptr) const;

    const Hyper &hyperParams() const { return hyper; }

    /**
     * Freeze the given synapses at zero weight (and zero momentum)
     * for every training step. This keeps the shadow weights
     * consistent with hardware whose corresponding multiplier or
     * adder input has been pruned away: without it, back-propagation
     * through non-zero shadow weights steers gradients through
     * connections the forward path no longer has.
     */
    void setPruneMask(std::vector<PrunedSynapse> mask)
    {
        prune = std::move(mask);
    }

    const std::vector<PrunedSynapse> &pruneMask() const
    {
        return prune;
    }

  private:
    Hyper hyper;
    std::vector<PrunedSynapse> prune;
};

} // namespace dtann

#endif // DTANN_ANN_TRAINER_HH

/**
 * @file
 * Key-logic vulnerability: the weight-write decoder.
 *
 * The paper's Section II argument for spatial expansion: "a faulty
 * transistor within this control logic would wreck the
 * accelerator". The spatially expanded array has almost no control
 * logic — but the weight-write path still needs a per-neuron select
 * decoder, which is therefore classified as key logic that must be
 * defect-free (and kept small / implemented with larger
 * transistors).
 *
 * This module builds that decoder as a real netlist so a single
 * transistor defect can be injected into it, and routes weight
 * writes through it: a defective decoder silently misdirects whole
 * weight rows, which retraining cannot compensate because every
 * subsequent write is misdirected too.
 */

#ifndef DTANN_CORE_KEYLOGIC_HH
#define DTANN_CORE_KEYLOGIC_HH

#include <memory>

#include "ann/mlp.hh"
#include "core/accelerator.hh"

namespace dtann {

/**
 * Build the neuron-select decoder netlist.
 *
 * Primary inputs: address bits (ceil(log2(lines))), then a write
 * enable. Primary outputs: @p lines one-hot select lines. Each
 * line is one cell group.
 */
Netlist buildWriteDecoder(int lines);

/** A (possibly defective) weight-write decoder instance. */
class WriteDecoder
{
  public:
    explicit WriteDecoder(int lines);

    /** Number of select lines. */
    int lines() const { return numLines; }

    /** Address width in bits. */
    int addressBits() const { return addrBits; }

    /** Inject transistor-level defects into the decoder. */
    std::vector<InjectionRecord> inject(int count, Rng &rng);

    /**
     * Drive the decoder: which select lines assert for
     * @p address with write enable high? A clean decoder returns
     * exactly one line.
     */
    std::vector<bool> select(int address);

  private:
    int numLines;
    int addrBits;
    std::shared_ptr<const Netlist> nl;
    std::unique_ptr<OperatorSim> sim;
};

/**
 * Write a full network's weight rows through the decoder: hidden
 * rows use addresses [0, hidden), output rows
 * [hidden, hidden + outputs). Rows whose select line asserts are
 * (re)written, misrouted or skipped exactly as the decoder
 * dictates.
 *
 * @param accel the array (weights quantized to its physical shape)
 * @param w logical weights mapped like Accelerator::setWeights
 * @param decoder the write decoder (needs hidden + outputs lines)
 */
void writeWeightsThroughDecoder(Accelerator &accel, const DeepWeights &w,
                                WriteDecoder &decoder);

} // namespace dtann

#endif // DTANN_CORE_KEYLOGIC_HH

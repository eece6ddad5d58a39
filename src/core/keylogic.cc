#include "core/keylogic.hh"

#include "common/logging.hh"

namespace dtann {

Netlist
buildWriteDecoder(int lines)
{
    dtann_assert(lines >= 2 && lines <= 64, "unsupported decoder size");
    int bits = 1;
    while ((1 << bits) < lines)
        ++bits;

    NetlistBuilder bld;
    Bus addr = bld.inputBus(bits);
    Bus en = bld.inputBus(1);
    Bus addr_n(static_cast<size_t>(bits));
    for (int b = 0; b < bits; ++b)
        addr_n[static_cast<size_t>(b)] =
            bld.notG(addr[static_cast<size_t>(b)]);

    Bus sel(static_cast<size_t>(lines));
    for (int line = 0; line < lines; ++line) {
        bld.beginCell();
        Bus lits;
        for (int b = 0; b < bits; ++b)
            lits.push_back((line >> b) & 1
                               ? addr[static_cast<size_t>(b)]
                               : addr_n[static_cast<size_t>(b)]);
        lits.push_back(en[0]);
        sel[static_cast<size_t>(line)] = bld.andTree(lits);
    }
    bld.outputBus(sel);
    return bld.take();
}

WriteDecoder::WriteDecoder(int lines)
    : numLines(lines),
      nl(std::make_shared<Netlist>(buildWriteDecoder(lines)))
{
    addrBits = static_cast<int>(nl->inputs().size()) - 1;
    sim = std::make_unique<OperatorSim>(nl, Injection{});
}

std::vector<InjectionRecord>
WriteDecoder::inject(int count, Rng &rng)
{
    Injection inj = injectTransistorDefects(*nl, count, rng);
    // Merge with existing faults.
    Injection combined{sim->evaluator().faults(), sim->faultRecords()};
    combined.merge(inj);
    sim = std::make_unique<OperatorSim>(nl, std::move(combined));
    return std::move(inj.records);
}

std::vector<bool>
WriteDecoder::select(int address)
{
    dtann_assert(address >= 0 && address < (1 << addrBits),
                 "address out of range");
    uint64_t in = static_cast<uint64_t>(address) |
        (1ull << addrBits); // enable high
    uint64_t lanes = sim->apply(in);
    std::vector<bool> lines(static_cast<size_t>(numLines));
    for (int l = 0; l < numLines; ++l)
        lines[static_cast<size_t>(l)] = (lanes >> l) & 1;
    // Drop enable between writes, as the DMA sequencing does.
    sim->apply(static_cast<uint64_t>(address));
    return lines;
}

void
writeWeightsThroughDecoder(Accelerator &accel, const DeepWeights &w,
                           WriteDecoder &decoder)
{
    const AcceleratorConfig &cfg = accel.config();
    const MlpTopology &logical = accel.mapping();
    dtann_assert(decoder.lines() == cfg.hidden + cfg.outputs,
                 "decoder must have one line per neuron");
    dtann_assert(w.topology() == logical, "weight topology mismatch");

    // Quantized physical row images, mapped like setWeights().
    std::vector<std::vector<Fix16>> hid_rows(
        static_cast<size_t>(cfg.hidden),
        std::vector<Fix16>(static_cast<size_t>(cfg.inputs + 1)));
    for (int j = 0; j < logical.hidden; ++j) {
        for (int i = 0; i < logical.inputs; ++i)
            hid_rows[static_cast<size_t>(j)][static_cast<size_t>(i)] =
                Fix16::fromDouble(w.at(0, j, i));
        hid_rows[static_cast<size_t>(j)][static_cast<size_t>(cfg.inputs)] =
            Fix16::fromDouble(w.at(0, j, logical.inputs));
    }
    std::vector<std::vector<Fix16>> out_rows(
        static_cast<size_t>(cfg.outputs),
        std::vector<Fix16>(static_cast<size_t>(cfg.hidden + 1)));
    for (int k = 0; k < logical.outputs; ++k) {
        for (int j = 0; j < logical.hidden; ++j)
            out_rows[static_cast<size_t>(k)][static_cast<size_t>(j)] =
                Fix16::fromDouble(w.at(1, k, j));
        out_rows[static_cast<size_t>(k)][static_cast<size_t>(cfg.hidden)] =
            Fix16::fromDouble(w.at(1, k, logical.hidden));
    }

    // Sequence every row write through the decoder: the asserted
    // line(s) decide which physical neuron actually receives it.
    for (int r = 0; r < cfg.hidden + cfg.outputs; ++r) {
        std::vector<bool> lines = decoder.select(r);
        const bool is_hidden = r < cfg.hidden;
        const auto &data = is_hidden
            ? hid_rows[static_cast<size_t>(r)]
            : out_rows[static_cast<size_t>(r - cfg.hidden)];
        for (int l = 0; l < decoder.lines(); ++l) {
            if (!lines[static_cast<size_t>(l)])
                continue;
            if (l < cfg.hidden && is_hidden) {
                accel.loadPhysicalRow(Layer::Hidden, l, data);
            } else if (l >= cfg.hidden && !is_hidden) {
                accel.loadPhysicalRow(Layer::Output, l - cfg.hidden, data);
            }
            // Cross-layer misdirects hit rows of the wrong width;
            // the write is dropped (bus mismatch in hardware).
        }
    }
}

} // namespace dtann

/**
 * @file
 * Table III: accelerator, activation-function and memory-interface
 * characteristics at 90 nm, plus the Section VI-A key-logic
 * scaling projection and a functional-model throughput benchmark.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "core/cost_model.hh"
#include "core/injector.hh"

using namespace dtann;

namespace {

void
printTableIII()
{
    CostModel cm((AcceleratorConfig()));
    BlockCost acc = cm.accelerator();
    BlockCost act = cm.activation();
    BlockCost itf = cm.interface();

    TextTable t({"characteristic", "accelerator", "activation",
                 "interface", "paper(accel)"});
    t.addRow({"time (ns)", fmtDouble(acc.latencyNs, 2),
              fmtDouble(act.latencyNs, 2), fmtDouble(itf.latencyNs, 2),
              "14.92"});
    t.addRow({"area (mm^2)", fmtDouble(acc.areaMm2, 3),
              fmtDouble(act.areaMm2, 4), fmtDouble(itf.areaMm2, 4),
              "9.02"});
    t.addRow({"power (W)", fmtDouble(acc.powerW, 3),
              fmtDouble(act.powerW, 4), fmtDouble(itf.powerW, 4),
              "4.70"});
    t.addRow({"energy/row (nJ)", fmtDouble(acc.energyPerRowNj, 2),
              fmtDouble(act.energyPerRowNj, 4),
              fmtDouble(itf.energyPerRowNj, 4), "70.16"});
    t.print(std::cout);

    std::printf("\npaper reference values: activation 2.84 ns / "
                "0.017 mm^2 / 0.0019 W; interface 0.047 mm^2 / "
                "0.0054 W\n");
    std::printf("array transistors: %zu; interface transistors: %zu\n",
                cm.arrayTransistors(), cm.interfaceTransistors());

    DmaModel dma;
    std::printf("\nmemory interface sizing (Section VI-A):\n");
    std::printf("  bandwidth demand   : %.2f GB/s (paper: 11.23)\n",
                DmaModel::demandGBs(90 * 16, 14.92));
    std::printf("  peak link bandwidth: %.1f GB/s (QPI-class 12.8)\n",
                dma.peakBandwidthGBs());
    std::printf("  required clock     : %.0f MHz (paper: 754, "
                "clocked at 800)\n",
                dma.requiredClockMhz(90 * 16, 14.92));

    std::printf("\nkey-logic area fraction across technology "
                "generations (array halves per step):\n");
    const char *nodes[] = {"90nm", "65nm", "45nm", "32nm",
                           "22nm", "16nm", "11nm"};
    for (int g = 0; g <= 6; ++g)
        std::printf("  +%d gen (%s): %.1f%%%s\n", g, nodes[g],
                    100.0 * cm.keyLogicFraction(g),
                    g == 4 ? "  (paper: <10% at 22nm)"
                           : (g == 6 ? "  (paper: ~25% at 11nm)" : ""));

    std::printf("\nhardening the key logic with 2x transistors "
                "costs +%.2f%% of total area today and +%.1f%% at "
                "11nm (+6 gen) -- cheap insurance, as the paper "
                "argues\n",
                100.0 * cm.hardenedKeyLogicOverhead(2.0, 0),
                100.0 * cm.hardenedKeyLogicOverhead(2.0, 6));

    std::printf("\noutput-layer critical logic (Section VI-C): "
                "%.1f%% of output layer, %.1f%% of total area "
                "(paper: 25.9%% / 2.3%%)\n",
                100.0 * cm.outputCriticalShareOfOutputLayer(),
                100.0 * cm.outputCriticalAreaFraction());
}

/** Functional-model forward throughput (clean array). */
void
BM_ForwardCleanRow(benchmark::State &state)
{
    MlpTopology topo{90, 10, 10};
    Accelerator accel((AcceleratorConfig()), topo);
    DeepWeights w(topo);
    Rng rng(1);
    w.initRandom(rng);
    accel.setWeights(w);
    std::vector<double> in(90);
    for (double &v : in)
        v = rng.nextDouble();
    for (auto _ : state) {
        benchmark::DoNotOptimize(accel.forward(in));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ForwardCleanRow);

/** Forward throughput with gate-level simulated faulty units. */
void
BM_ForwardFaultyRow(benchmark::State &state)
{
    MlpTopology topo{90, 10, 10};
    Accelerator accel((AcceleratorConfig()), topo);
    DeepWeights w(topo);
    Rng rng(1);
    w.initRandom(rng);
    accel.setWeights(w);
    DefectInjector inj(accel, SitePool::inputAndHidden());
    inj.inject(static_cast<int>(state.range(0)), rng);
    std::vector<double> in(90);
    for (double &v : in)
        v = rng.nextDouble();
    for (auto _ : state) {
        benchmark::DoNotOptimize(accel.forward(in));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ForwardFaultyRow)->Arg(1)->Arg(9)->Arg(27);

} // namespace

int
main(int argc, char **argv)
{
    benchBanner("Table III: accelerator characteristics at 90nm",
                "Temam, ISCA 2012, Table III + Section VI-A");
    printTableIII();
    std::printf("\nfunctional-model throughput "
                "(google-benchmark):\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

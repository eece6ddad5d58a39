/**
 * @file
 * Differential suite for the batched ForwardModel overrides: for
 * every accelerator-backed wrapper (time-muxed, row-mapped outputs
 * under the spare, remap and replicate plans, deep stacks)
 * forwardBatch() must be
 * bit-identical per row to scalar forward(), with defects injected
 * and under the DTANN_NO_BATCH escape hatch.
 *
 * Faulty operators can be stateful (latch faults), which makes
 * comparing forward() then forwardBatch() on one instance invalid —
 * each test builds twin accelerators with identically-seeded
 * injections and runs one path on each.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/deep_mux.hh"
#include "core/injector.hh"
#include "core/row_map.hh"
#include "core/timemux.hh"

namespace dtann {
namespace {

AcceleratorConfig
smallArray()
{
    AcceleratorConfig cfg;
    cfg.inputs = 12;
    cfg.hidden = 4;
    cfg.outputs = 3;
    return cfg;
}

std::vector<std::vector<double>>
randomRows(size_t n, int width, Rng &rng)
{
    std::vector<std::vector<double>> rows(n);
    for (auto &row : rows) {
        row.resize(static_cast<size_t>(width));
        for (double &v : row)
            v = rng.nextDouble();
    }
    return rows;
}

/** Per-row scalar sweep (the reference semantics). */
std::vector<Activations>
scalarSweep(ForwardModel &model,
            const std::vector<std::vector<double>> &rows)
{
    std::vector<Activations> acts;
    acts.reserve(rows.size());
    for (const auto &row : rows)
        acts.push_back(model.forward(row));
    return acts;
}

void
expectBitIdentical(const std::vector<Activations> &want,
                   const std::vector<Activations> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (size_t r = 0; r < want.size(); ++r)
        EXPECT_EQ(want[r].layers, got[r].layers) << "row " << r;
}

TEST(ForwardBatchDifferential, TimeMuxedMatchesScalar)
{
    // 70 rows crosses the 64-row lane-group boundary of the hoisted
    // batch engine; several seeds exercise both the pure (hoisted)
    // and stateful-fallback sides of the batchPure() decision.
    MlpTopology logical{12, 12, 3}; // mux factor (12+3)/4 = 4
    int pure_runs = 0, fallback_runs = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        DeepWeights w(logical);
        Rng wr(seed * 11);
        w.initRandom(wr, 1.2);

        Accelerator scalar_accel(smallArray(), {12, 4, 3});
        TimeMuxedMlp scalar_mux(scalar_accel, logical);
        scalar_mux.setWeights(w);
        Accelerator batch_accel(smallArray(), {12, 4, 3});
        TimeMuxedMlp batch_mux(batch_accel, logical);
        batch_mux.setWeights(w);

        DefectInjector scalar_inj(scalar_accel,
                                  SitePool::inputAndHidden());
        DefectInjector batch_inj(batch_accel,
                                 SitePool::inputAndHidden());
        Rng ir_a(seed * 13), ir_b(seed * 13);
        scalar_inj.inject(4, ir_a);
        batch_inj.inject(4, ir_b);
        ASSERT_EQ(scalar_accel.batchPure(), batch_accel.batchPure());
        (batch_accel.batchPure() ? pure_runs : fallback_runs)++;

        Rng rr(seed * 17);
        auto rows = randomRows(70, 12, rr);
        auto want = scalarSweep(scalar_mux, rows);
        auto got = batch_mux.forwardBatch(rows);
        expectBitIdentical(want, got);
        // Same total faulty-operator work, only reclassified
        // between the scalar and batch paths.
        EXPECT_EQ(scalar_mux.simCounters().vectors(),
                  batch_mux.simCounters().vectors());
    }
    EXPECT_GT(pure_runs, 0) << "no seed exercised the hoisted path";
    EXPECT_GT(fallback_runs, 0)
        << "no seed exercised the stateful fallback";
}

TEST(ForwardBatchDifferential, SparedOutputsMatchScalar)
{
    MlpTopology logical{10, 4, 2};
    AcceleratorConfig cfg = smallArray();
    cfg.outputs = 7; // 3 copies of each logical output, one unused row
    MlpTopology full = fullRowTopology(logical, cfg);
    // The output-critical pool, and every unit: the latter also puts
    // faults on the unused row and padding synapses.
    for (SitePool pool : {SitePool::outputCritical(), SitePool::all()}) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            DeepWeights w(logical);
            Rng wr(seed * 19);
            w.initRandom(wr, 1.2);

            Accelerator scalar_accel(cfg, full);
            RowMappedMlp scalar_model(scalar_accel, logical,
                                      sparePlan(logical, 3));
            scalar_model.setWeights(w);
            Accelerator batch_accel(cfg, full);
            RowMappedMlp batch_model(batch_accel, logical,
                                     sparePlan(logical, 3));
            batch_model.setWeights(w);

            DefectInjector scalar_inj(scalar_accel, pool);
            DefectInjector batch_inj(batch_accel, pool);
            Rng ir_a(seed * 23), ir_b(seed * 23);
            scalar_inj.inject(3, ir_a);
            batch_inj.inject(3, ir_b);

            Rng rr(seed * 29);
            auto rows = randomRows(70, 10, rr);
            expectBitIdentical(scalarSweep(scalar_model, rows),
                               batch_model.forwardBatch(rows));
            EXPECT_EQ(scalar_model.simCounters().vectors(),
                      batch_model.simCounters().vectors());
        }
    }
}

TEST(ForwardBatchDifferential, RemappedOutputsMatchScalar)
{
    MlpTopology logical{10, 4, 3};
    AcceleratorConfig cfg = smallArray();
    cfg.outputs = 5; // two spare physical rows
    MlpTopology full = fullRowTopology(logical, cfg);
    // A remap plan (logical 1 steered to spare 3) and a replicate
    // plan (logical 1 voted over its own row and both spares).
    for (const RowPlan &plan :
         {RowPlan{{0}, {3}, {2}}, RowPlan{{0}, {1, 3, 4}, {2}}}) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            DeepWeights w(logical);
            Rng wr(seed * 31);
            w.initRandom(wr, 1.2);

            Accelerator scalar_accel(cfg, full);
            RowMappedMlp scalar_model(scalar_accel, logical, plan);
            scalar_model.setWeights(w);
            Accelerator batch_accel(cfg, full);
            RowMappedMlp batch_model(batch_accel, logical, plan);
            batch_model.setWeights(w);

            DefectInjector scalar_inj(scalar_accel, SitePool::all());
            DefectInjector batch_inj(batch_accel, SitePool::all());
            Rng ir_a(seed * 37), ir_b(seed * 37);
            scalar_inj.inject(3, ir_a);
            batch_inj.inject(3, ir_b);

            Rng rr(seed * 41);
            auto rows = randomRows(70, 10, rr);
            expectBitIdentical(scalarSweep(scalar_model, rows),
                               batch_model.forwardBatch(rows));
        }
    }
}

TEST(ForwardBatchDifferential, DeepStackMatchesScalar)
{
    DeepTopology topo{{12, 9, 7, 3}};
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        DeepWeights w(topo);
        Rng wr(seed * 43);
        w.initRandom(wr, 1.0);

        Accelerator scalar_accel(smallArray(), {12, 4, 3});
        DeepMuxedNetwork scalar_model(scalar_accel, topo);
        scalar_model.setWeights(w);
        Accelerator batch_accel(smallArray(), {12, 4, 3});
        DeepMuxedNetwork batch_model(batch_accel, topo);
        batch_model.setWeights(w);

        DefectInjector scalar_inj(scalar_accel,
                                  SitePool::inputAndHidden());
        DefectInjector batch_inj(batch_accel,
                                 SitePool::inputAndHidden());
        Rng ir_a(seed * 47), ir_b(seed * 47);
        scalar_inj.inject(4, ir_a);
        batch_inj.inject(4, ir_b);

        Rng rr(seed * 53);
        auto rows = randomRows(70, 12, rr);
        expectBitIdentical(scalarSweep(scalar_model, rows),
                           batch_model.forwardBatch(rows));
        EXPECT_EQ(scalar_model.simCounters().vectors(),
                  batch_model.simCounters().vectors());
    }
}

TEST(ForwardBatchDifferential, EnvKnobsPreserveBits)
{
    // DTANN_NO_BATCH forces every faulty sim (and thus batchPure())
    // off the lane path. The knob is read at injection time, so each
    // configuration gets freshly built twins; outputs must not move
    // by a single bit relative to the fast-path baseline.
    MlpTopology logical{12, 12, 3};
    const uint64_t seed = 3;
    DeepWeights w(logical);
    Rng wr(seed);
    w.initRandom(wr, 1.2);
    Rng rr(seed * 61);
    auto rows = randomRows(70, 12, rr);

    auto run = [&](bool batch_path) {
        Accelerator accel(smallArray(), {12, 4, 3});
        TimeMuxedMlp mux(accel, logical);
        mux.setWeights(w);
        DefectInjector inj(accel, SitePool::inputAndHidden());
        Rng ir(seed * 59);
        inj.inject(3, ir);
        return batch_path ? mux.forwardBatch(rows)
                          : scalarSweep(mux, rows);
    };

    auto want_scalar = run(false);
    auto want_batch = run(true);
    expectBitIdentical(want_scalar, want_batch);

    setenv("DTANN_NO_BATCH", "1", 1);
    {
        Accelerator accel(smallArray(), {12, 4, 3});
        TimeMuxedMlp mux(accel, logical);
        mux.setWeights(w);
        DefectInjector inj(accel, SitePool::inputAndHidden());
        Rng ir(seed * 59);
        inj.inject(3, ir);
        EXPECT_FALSE(accel.batchPure());
        expectBitIdentical(want_batch, mux.forwardBatch(rows));
    }
    expectBitIdentical(want_scalar, run(false));
    unsetenv("DTANN_NO_BATCH");
    expectBitIdentical(want_batch, run(true));
}

TEST(ForwardBatchDifferential, BatchBitIdenticalAcrossLaneWidths)
{
    // DTANN_LANES resizes the hoisted mux batch engine's chunks and
    // the fault-plane width underneath forwardBatch; no activation
    // bit may move across 64/256/512/auto.
    MlpTopology logical{12, 12, 3}; // mux factor 4
    DeepWeights w(logical);
    Rng wr(5);
    w.initRandom(wr, 1.2);

    auto runAt = [&](const char *lanes) {
        if (lanes)
            setenv("DTANN_LANES", lanes, 1);
        else
            unsetenv("DTANN_LANES");
        Accelerator accel(smallArray(), {12, 4, 3});
        TimeMuxedMlp mux(accel, logical);
        mux.setWeights(w);
        DefectInjector inj(accel, SitePool::inputAndHidden());
        Rng ir(7);
        inj.inject(4, ir);
        Rng rr(9);
        // 300 rows: spans several wide planes and ends on a partial
        // chunk at every width.
        auto rows = randomRows(300, 12, rr);
        auto acts = mux.forwardBatch(rows);
        unsetenv("DTANN_LANES");
        return acts;
    };
    auto oracle = runAt("64");
    expectBitIdentical(oracle, runAt("256"));
    expectBitIdentical(oracle, runAt("512"));
    expectBitIdentical(oracle, runAt(nullptr)); // auto width
}

} // namespace
} // namespace dtann

/**
 * @file
 * Differential suite for ForwardModel::forwardBatchInto(), each
 * model's one evaluation method: for every accelerator-backed
 * wrapper (time-muxed, row-mapped outputs under the spare, remap
 * and replicate plans, deep stacks) forwardBatch() must be
 * bit-identical per row to scalar forward(), with defects injected
 * and under the DTANN_NO_BATCH escape hatch; and for every model,
 * forwardBatchInto() into reused or misshapen records and
 * forwardRow() must give the records a fresh forwardBatch() does.
 *
 * Faulty operators can be stateful (latch faults), which makes
 * comparing forward() then forwardBatch() on one instance invalid —
 * each test builds twin accelerators with identically-seeded
 * injections and runs one path on each.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>

#include "ann/fixed_mlp.hh"
#include "core/deep_mux.hh"
#include "core/injector.hh"
#include "core/row_map.hh"
#include "core/systolic.hh"
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

/** Builds one model with its weights installed and its defects
 *  injected, identically on every call (a twin per call). */
using MakeModel = std::function<std::shared_ptr<ForwardModel>()>;

/**
 * Every way of reaching a model's records must give what a fresh
 * forwardBatch() gives on a twin: forwardBatchInto() into records
 * of the right shape holding other values, into records of the
 * wrong layer count or widths, into the records of an earlier call,
 * and forwardRow() row after row against forward().
 */
void
checkRecordReuse(const MakeModel &make)
{
    std::shared_ptr<ForwardModel> ref = make();
    Rng rr(71);
    auto rows = randomRows(70, ref->topology().inputs(), rr);
    std::vector<Activations> want = ref->forwardBatch(rows);
    std::vector<Activations> want_again = ref->forwardBatch(rows);
    ASSERT_EQ(want.size(), rows.size());

    {
        SCOPED_TRACE("records of the right shape holding other values");
        std::vector<Activations> recs = want;
        for (Activations &act : recs)
            for (std::vector<double> &layer : act.layers)
                for (double &v : layer)
                    v = -3.25;
        make()->forwardBatchInto(rows, recs);
        expectBitIdentical(want, recs);
    }
    {
        SCOPED_TRACE("records of the wrong layer count or widths");
        size_t stages = want[0].layers.size();
        std::vector<Activations> recs(rows.size());
        for (size_t r = 0; r < recs.size(); ++r) {
            std::vector<std::vector<double>> &layers = recs[r].layers;
            switch (r % 4) {
              case 0: // no layers
                break;
              case 1: // too many layers
                layers.assign(stages + 3, std::vector<double>(2, 9.0));
                break;
              case 2: // the right count, every width one too wide
                for (const std::vector<double> &layer : want[r].layers)
                    layers.emplace_back(layer.size() + 1, 9.0);
                break;
              default: // one layer short, the rest too narrow
                layers.assign(stages - 1, std::vector<double>(0));
                break;
            }
        }
        make()->forwardBatchInto(rows, recs);
        expectBitIdentical(want, recs);
    }
    {
        SCOPED_TRACE("the records of the model's own earlier call");
        std::shared_ptr<ForwardModel> model = make();
        std::vector<Activations> recs(rows.size());
        model->forwardBatchInto(rows, recs);
        expectBitIdentical(want, recs);
        model->forwardBatchInto(rows, recs);
        expectBitIdentical(want_again, recs);
    }
    {
        SCOPED_TRACE("forwardRow() against forward()");
        std::shared_ptr<ForwardModel> a = make(), b = make();
        const Activations *first = nullptr;
        for (size_t r = 0; r < 6; ++r) {
            Activations want_row = a->forward(rows[r]);
            const Activations &got = b->forwardRow(rows[r]);
            EXPECT_EQ(want_row.layers, got.layers) << "row " << r;
            if (!first)
                first = &got;
            EXPECT_EQ(first, &got) << "forwardRow() keeps one record";
        }
    }
}

/** Weights for @p topo drawn from @p seed. */
DeepWeights
randomWeights(const DeepTopology &topo, uint64_t seed)
{
    DeepWeights w(topo);
    Rng wr(seed);
    w.initRandom(wr, 1.2);
    return w;
}

/** A wrapper model together with the array it runs on. */
template <class Array, class Model>
struct OnArray
{
    Array array;
    Model model;

    template <class... Args>
    OnArray(const AcceleratorConfig &cfg, MlpTopology mapping,
            Args &&...args)
        : array(cfg, mapping), model(array, std::forward<Args>(args)...)
    {
    }
};

/** Build @p Model over a fresh @p Array, inject @p defects defects
 *  from @p pool (seeded by @p seed) and install @p w. */
template <class Array, class Model, class... Args>
std::shared_ptr<ForwardModel>
wrapped(const AcceleratorConfig &cfg, MlpTopology mapping,
        const SitePool &pool, int defects, uint64_t seed,
        const DeepWeights &w, Args... args)
{
    auto owned = std::make_shared<OnArray<Array, Model>>(cfg, mapping,
                                                         args...);
    DefectInjector inj(owned->array, pool);
    Rng ir(seed);
    inj.inject(defects, ir);
    owned->model.setWeights(w);
    return std::shared_ptr<ForwardModel>(owned, &owned->model);
}

TEST(ForwardBatchRecordReuse, NativeModels)
{
    for (const DeepTopology &topo :
         {DeepTopology{{6, 5, 3}}, DeepTopology{{6, 7, 5, 4, 2}}}) {
        SCOPED_TRACE("FloatMlp, " +
                     std::to_string(topo.stages()) + " stages");
        DeepWeights w = randomWeights(topo, 73);
        checkRecordReuse([&] {
            auto m = std::make_shared<FloatMlp>(topo);
            m->setWeights(w);
            return m;
        });
    }
    SCOPED_TRACE("FixedMlp");
    MlpTopology topo{6, 5, 3};
    DeepWeights w = randomWeights(topo, 79);
    checkRecordReuse([&] {
        auto m = std::make_shared<FixedMlp>(topo);
        m->setWeights(w);
        return m;
    });
}

template <class Backend>
void
checkBackendRecordReuse()
{
    MlpTopology topo{10, 4, 3};
    DeepWeights w = randomWeights(topo, 83);
    for (int defects : {0, 4}) {
        SCOPED_TRACE(std::to_string(defects) + " defects");
        checkRecordReuse([&] {
            auto hw = std::make_shared<Backend>(smallArray(), topo);
            if (defects) {
                // A stateful faulty latch in the task's block, and
                // random defects anywhere.
                Rng ir(89);
                hw->injectDefects({UnitKind::WeightLatch, Layer::Hidden, 1,
                                   2},
                                  3, ir);
                DefectInjector inj(*hw, SitePool::all());
                inj.inject(defects, ir);
            }
            hw->setWeights(w);
            return hw;
        });
    }
}

TEST(ForwardBatchRecordReuse, SpatialBackend)
{
    checkBackendRecordReuse<SpatialBackend>();
}

TEST(ForwardBatchRecordReuse, SystolicBackend)
{
    checkBackendRecordReuse<SystolicBackend>();
}

TEST(ForwardBatchRecordReuse, TimeMuxedAndDeepMuxed)
{
    for (int defects : {0, 4}) {
        SCOPED_TRACE(std::to_string(defects) + " defects");
        {
            SCOPED_TRACE("TimeMuxedMlp");
            MlpTopology logical{12, 12, 3}; // mux factor 4
            DeepWeights w = randomWeights(logical, 97);
            checkRecordReuse([&] {
                return wrapped<Accelerator, TimeMuxedMlp>(
                    smallArray(), {12, 4, 3}, SitePool::inputAndHidden(),
                    defects, 101, w, logical);
            });
        }
        {
            SCOPED_TRACE("DeepMuxedNetwork");
            DeepTopology deep{{12, 9, 7, 3}};
            DeepWeights w = randomWeights(deep, 103);
            checkRecordReuse([&] {
                return wrapped<Accelerator, DeepMuxedNetwork>(
                    smallArray(), {12, 4, 3}, SitePool::inputAndHidden(),
                    defects, 107, w, deep);
            });
        }
    }
}

TEST(ForwardBatchRecordReuse, RowMappedPlans)
{
    MlpTopology logical{10, 4, 2};
    AcceleratorConfig cfg = smallArray();
    cfg.outputs = 6;
    MlpTopology full = fullRowTopology(logical, cfg);
    DeepWeights w = randomWeights(logical, 109);
    // Spare (three blind copies), remap (logical 1 on spare row 4)
    // and replicate (logical 0 voted over its row and two spares).
    for (const RowPlan &plan :
         {sparePlan(logical, 3), RowPlan{{0}, {4}},
          RowPlan{{0, 2, 3}, {1}}}) {
        for (int defects : {0, 3}) {
            SCOPED_TRACE(std::to_string(plan[0].size()) + "/" +
                         std::to_string(plan[1].size()) + " rows, " +
                         std::to_string(defects) + " defects");
            checkRecordReuse([&] {
                return wrapped<Accelerator, RowMappedMlp>(
                    cfg, full, SitePool::all(), defects, 113, w, logical,
                    plan);
            });
        }
    }
}

} // namespace
} // namespace dtann

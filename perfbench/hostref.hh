/**
 * @file
 * Host-speed reference for the campaign benchmark.
 *
 * Shared hosts change speed by tens of percent over minutes (other
 * tenants' load on shared cores and caches), which swamps the
 * differences the benchmark is meant to show. The benchmark therefore
 * times a fixed kernel right before and after every unit of work and
 * scales the unit's times to a nominal host on which the kernel takes
 * a fixed time (perfbench/run.py, REF_S). The kernel shares no code
 * with dtann and is built without its usage requirements, so no
 * change to the library moves it.
 */

#ifndef DTANN_PERFBENCH_HOSTREF_HH
#define DTANN_PERFBENCH_HOSTREF_HH

namespace perfbench {

/**
 * Seconds one pass of the reference kernel takes now: the best of
 * @p reps passes. The kernel is cache-resident 64-bit logic over a
 * 32 KiB table, like gate-level simulation, about 30 ms per pass.
 */
double hostRefSeconds(int reps = 3);

} // namespace perfbench

#endif

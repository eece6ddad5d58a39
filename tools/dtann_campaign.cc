/**
 * @file
 * Campaign-as-a-service driver: run any scenario spec, locally or
 * against a dtannd daemon.
 *
 *   dtann_campaign specs/fig10.json
 *   dtann_campaign --builtin mitigation --full
 *   dtann_campaign specs/fig10.json --journal run.jnl --out fig10.json
 *   dtann_campaign --validate specs/fig10.json
 *   dtann_campaign submit --server 127.0.0.1:8437 specs/fig10.json
 *   dtann_campaign result --server 127.0.0.1:8437 3 --out fig10.json
 *
 * The spec (a JSON document, see DESIGN.md and specs/) picks the
 * campaign kind and all of its knobs; DTANN_SEED/DTANN_THREADS act
 * as documented overrides applied in exactly one place
 * (applyEnvOverrides). With --journal, completed cells are
 * checkpointed to a results journal as they finish, and a rerun
 * against the same journal skips them — the final export is
 * bit-identical to an uninterrupted run, so long campaigns survive
 * kills, crashes, and reboots.
 *
 * The subcommands (submit/status/result/cancel/metrics/shutdown)
 * talk to a running dtannd daemon instead of computing locally; the
 * daemon journals every job in its state dir, so the result fetched
 * from it is byte-identical to what the local run path prints.
 *
 * Exit codes (uniform across local and daemon modes):
 *   0  success
 *   1  runtime error (campaign, journal, job failed/cancelled)
 *   2  usage error
 *   3  spec error (parse or validation)
 *   4  file I/O error
 *   5  daemon unreachable or daemon protocol error
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/json.hh"
#include "core/campaign.hh"
#include "service/builtin_specs.hh"
#include "service/client.hh"
#include "service/journal.hh"
#include "service/runner.hh"

using namespace dtann;

namespace {

enum ExitCode {
    kOk = 0,
    kRuntimeError = 1,
    kUsageError = 2,
    kSpecError = 3,
    kIoError = 4,
    kDaemonError = 5,
};

int
usage(FILE *to)
{
    std::fprintf(
        to,
        "usage: dtann_campaign [options] [spec.json]\n"
        "       dtann_campaign submit   --server ADDR spec.json\n"
        "       dtann_campaign status   --server ADDR JOB_ID\n"
        "       dtann_campaign result   --server ADDR JOB_ID [--out F]\n"
        "       dtann_campaign cancel   --server ADDR JOB_ID\n"
        "       dtann_campaign metrics  --server ADDR\n"
        "       dtann_campaign shutdown --server ADDR [--now]\n"
        "\n"
        "Run one campaign described by a scenario spec — locally by\n"
        "default, or on a dtannd daemon via the subcommands.\n"
        "\n"
        "  --builtin NAME  run a built-in spec instead of a file\n"
        "                  (%s)\n"
        "  --full          built-in spec at paper scale "
        "(default: quick)\n"
        "  --validate      dry run: parse and expand the spec, print\n"
        "                  its cell plan, run nothing\n"
        "  --journal FILE  checkpoint finished cells to FILE and\n"
        "                  resume by skipping cells journaled there\n"
        "  --shard K/N     worker mode: compute only the cells whose\n"
        "                  index i has i %% N == K, journaling them to\n"
        "                  --journal (required); no result envelope\n"
        "                  is written. N workers' journals merged and\n"
        "                  replayed reproduce the unsharded result\n"
        "                  byte-identically (dtannd --workers does\n"
        "                  this automatically)\n"
        "  --out FILE      write the result envelope JSON to FILE\n"
        "                  ('-' = stdout, the default)\n"
        "  --progress N    progress heartbeat to stderr every N\n"
        "                  cells (default 50; 0 disables)\n"
        "  --server ADDR   daemon address (\"127.0.0.1:8437\" or\n"
        "                  \"unix:/path\"; default $DTANN_SERVER)\n"
        "  --now           with shutdown: cancel running jobs\n"
        "                  instead of draining them\n"
        "  --list          list built-in spec names and exit\n"
        "\n"
        "Environment overrides (applied after parsing the spec):\n"
        "  DTANN_SEED      overrides the spec's seed\n"
        "  DTANN_THREADS   overrides the spec's worker threads\n"
        "  DTANN_JSON_OUT  also mirror the envelope to this dir\n"
        "  DTANN_SERVER    default --server address\n"
        "\n"
        "Exit codes: 0 success, 1 runtime error, 2 usage, 3 spec\n"
        "error, 4 file I/O error, 5 daemon unreachable/protocol.\n",
        [] {
            static std::string names;
            for (const std::string &n : builtinSpecNames())
                names += (names.empty() ? "" : ", ") + n;
            return names.c_str();
        }());
    return to == stderr ? kUsageError : kOk;
}

/** Map a daemon answer to the uniform exit codes above. */
int
daemonExitCode(const ClientError &e)
{
    if (e.status == 0)
        return kDaemonError; // transport: unreachable/unparseable
    if (e.status == 400)
        return kSpecError; // daemon rejected the spec
    return kRuntimeError;  // job failed/cancelled/unknown etc.
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

bool
writeOut(const std::string &out_path, const std::string &document)
{
    if (out_path == "-") {
        std::printf("%s\n", document.c_str());
        return true;
    }
    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
        return false;
    }
    out << document << "\n";
    return true;
}

/** Print the --validate dry-run report for @p spec. */
int
validateSpec(const ScenarioSpec &spec)
{
    std::vector<CellRow> rows = spec.cellRows();
    // Network campaigns name their resolved hardware target; fig5
    // sweeps bare operators and has none.
    std::string backend = spec.backendLabel();
    if (!backend.empty())
        backend = " backend=" + backend;
    std::printf("spec ok: kind=%s name=%s seed=%llu cells=%zu%s\n",
                spec.kind.c_str(), spec.name.c_str(),
                (unsigned long long)spec.runConfig().seed,
                cellCount(rows), backend.c_str());
    size_t task_w = std::strlen("task"), var_w = std::strlen("variant");
    for (const CellRow &row : rows) {
        task_w = std::max(task_w, row.task.size());
        var_w = std::max(var_w, row.variant.size());
    }
    std::printf("  %-*s  %-*s  %s\n", (int)task_w, "task", (int)var_w,
                "variant", "reps");
    for (const CellRow &row : rows)
        std::printf("  %-*s  %-*s  %zu\n", (int)task_w,
                    row.task.c_str(), (int)var_w, row.variant.c_str(),
                    row.reps);
    return kOk;
}

struct Options
{
    std::string command; ///< "" = local run
    std::string spec_path, builtin, journal_path, out_path = "-";
    std::string server;
    std::string job_id;
    bool full = false;
    bool validate = false;
    bool now = false;
    long progress_every = 50;
    int shard_index = 0, shard_count = 1;
};

/** Parse a --shard "K/N" argument; false on malformed input. */
bool
parseShard(const char *arg, int &index, int &count)
{
    char *end = nullptr;
    long k = std::strtol(arg, &end, 10);
    if (end == arg || *end != '/')
        return false;
    const char *rest = end + 1;
    long n = std::strtol(rest, &end, 10);
    if (end == rest || *end != '\0')
        return false;
    if (n < 1 || k < 0 || k >= n || n > 4096)
        return false;
    index = static_cast<int>(k);
    count = static_cast<int>(n);
    return true;
}

int
runDaemonCommand(const Options &opt)
{
    if (opt.server.empty()) {
        std::fprintf(stderr,
                     "%s needs --server ADDR (or $DTANN_SERVER)\n",
                     opt.command.c_str());
        return usage(stderr);
    }
    CampaignClient client(opt.server);
    try {
        if (opt.command == "submit") {
            std::string text;
            if (!readWholeFile(opt.spec_path, text)) {
                std::fprintf(stderr, "cannot read spec '%s'\n",
                             opt.spec_path.c_str());
                return kIoError;
            }
            uint64_t id = client.submit(text);
            // Bare id on stdout: scripts capture it directly.
            std::printf("%llu\n", (unsigned long long)id);
            return kOk;
        }

        uint64_t id = 0;
        if (opt.command == "status" || opt.command == "result" ||
            opt.command == "cancel") {
            if (opt.job_id.empty() ||
                opt.job_id.find_first_not_of("0123456789") !=
                    std::string::npos) {
                std::fprintf(stderr, "%s needs a numeric job id\n",
                             opt.command.c_str());
                return usage(stderr);
            }
            id = std::stoull(opt.job_id);
        }

        if (opt.command == "status") {
            std::printf("%s\n", client.status(id).c_str());
        } else if (opt.command == "result") {
            // The daemon serves its result file verbatim, already
            // newline-terminated exactly like the local run path's
            // --out bytes; write it through untouched.
            std::string body = client.result(id);
            if (body.empty() || body.back() != '\n')
                body += '\n';
            if (opt.out_path == "-") {
                std::fputs(body.c_str(), stdout);
            } else {
                std::ofstream out(opt.out_path,
                                  std::ios::binary | std::ios::trunc);
                if (!out) {
                    std::fprintf(stderr, "cannot write '%s'\n",
                                 opt.out_path.c_str());
                    return kIoError;
                }
                out << body;
            }
        } else if (opt.command == "cancel") {
            client.cancel(id);
            std::fprintf(stderr, "job %llu cancelled\n",
                         (unsigned long long)id);
        } else if (opt.command == "metrics") {
            std::printf("%s\n", client.metrics().c_str());
        } else if (opt.command == "shutdown") {
            client.shutdown(opt.now);
            std::fprintf(stderr, "daemon at %s shutting down (%s)\n",
                         opt.server.c_str(),
                         opt.now ? "now" : "drain");
        }
        return kOk;
    } catch (const ClientError &e) {
        std::fprintf(stderr, "daemon error: %s\n", e.what());
        return daemonExitCode(e);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const char *server = std::getenv("DTANN_SERVER"))
        opt.server = server;

    int argi = 1;
    if (argi < argc && argv[argi][0] != '-') {
        std::string word = argv[argi];
        if (word == "submit" || word == "status" || word == "result" ||
            word == "cancel" || word == "metrics" ||
            word == "shutdown") {
            opt.command = word;
            ++argi;
        }
    }

    for (int i = argi; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n",
                             flag);
                std::exit(usage(stderr));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--list") {
            for (const std::string &n : builtinSpecNames())
                std::printf("%s\n", n.c_str());
            return kOk;
        }
        if (arg == "--builtin")
            opt.builtin = value("--builtin");
        else if (arg == "--full")
            opt.full = true;
        else if (arg == "--validate")
            opt.validate = true;
        else if (arg == "--journal")
            opt.journal_path = value("--journal");
        else if (arg == "--out")
            opt.out_path = value("--out");
        else if (arg == "--server")
            opt.server = value("--server");
        else if (arg == "--now")
            opt.now = true;
        else if (arg == "--progress")
            opt.progress_every =
                std::strtol(value("--progress"), nullptr, 10);
        else if (arg == "--shard") {
            const char *v = value("--shard");
            if (!parseShard(v, opt.shard_index, opt.shard_count)) {
                std::fprintf(stderr,
                             "bad --shard '%s' (expected K/N with "
                             "0 <= K < N)\n",
                             v);
                return usage(stderr);
            }
        }
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(stderr);
        } else if (!opt.command.empty() && opt.command != "submit" &&
                   opt.job_id.empty() && opt.spec_path.empty()) {
            opt.job_id = arg;
        } else if (opt.spec_path.empty()) {
            opt.spec_path = arg;
        } else {
            std::fprintf(stderr, "more than one spec given\n");
            return usage(stderr);
        }
    }

    if (!opt.command.empty()) {
        if (opt.command == "submit" && opt.spec_path.empty()) {
            std::fprintf(stderr, "submit needs a spec file\n");
            return usage(stderr);
        }
        return runDaemonCommand(opt);
    }

    if (opt.spec_path.empty() == opt.builtin.empty()) {
        std::fprintf(stderr,
                     "give exactly one of a spec file or --builtin\n");
        return usage(stderr);
    }

    try {
        ScenarioSpec spec;
        if (!opt.builtin.empty()) {
            spec = builtinSpec(opt.builtin, opt.full);
        } else {
            std::string text;
            if (!readWholeFile(opt.spec_path, text)) {
                std::fprintf(stderr, "cannot read spec '%s'\n",
                             opt.spec_path.c_str());
                return kIoError;
            }
            spec = ScenarioSpec::parse(text);
        }
        applyEnvOverrides(spec);

        if (opt.validate)
            return validateSpec(spec);

        if (opt.shard_count > 1) {
            if (opt.journal_path.empty()) {
                std::fprintf(stderr,
                             "--shard needs --journal FILE (the "
                             "shard's cells are its only output)\n");
                return usage(stderr);
            }
            spec.runConfig().shardIndex = opt.shard_index;
            spec.runConfig().shardCount = opt.shard_count;
        }

        if (opt.progress_every > 0) {
            long every = opt.progress_every;
            spec.runConfig().onCellDone = [every](const CellReport &r) {
                if (r.cellsDone % static_cast<size_t>(every) == 0 ||
                    r.cellsDone == r.cellsTotal)
                    std::fprintf(stderr,
                                 "  [%zu/%zu] %s defects=%d rep=%d\n",
                                 r.cellsDone, r.cellsTotal,
                                 r.task.c_str(), r.defects, r.rep);
            };
        }

        // The journal binds to the spec echo *after* overrides: a
        // different seed or axis set is a different campaign. (The
        // echo normalizes the thread count away — results are
        // bit-identical for any width, so resume may change it.)
        std::unique_ptr<ResultJournal> journal;
        if (!opt.journal_path.empty()) {
            journal = std::make_unique<ResultJournal>(
                opt.journal_path, spec.journalEcho());
            spec.runConfig().journal = journal.get();
            if (journal->resumedCells() > 0)
                std::fprintf(stderr,
                             "resuming: %zu cells journaled in %s\n",
                             journal->resumedCells(),
                             opt.journal_path.c_str());
        }

        ScenarioResult result = runScenario(spec);
        std::fprintf(stderr, "%s: %zu cells done\n",
                     result.name.c_str(), result.cells);

        if (opt.shard_count > 1) {
            // Worker mode: the shard's journal is the product; the
            // in-process accumulation covers only this shard's
            // cells, so the envelope would be misleading.
            std::fprintf(stderr,
                         "shard %d/%d journaled to %s (no envelope "
                         "written)\n",
                         opt.shard_index, opt.shard_count,
                         opt.journal_path.c_str());
            return kOk;
        }
        if (!writeOut(opt.out_path, result.json))
            return kIoError;
        maybeWriteJson(result.name, result.json);
        return kOk;
    } catch (const JsonError &e) {
        std::fprintf(stderr, "spec error: %s\n", e.what());
        return kSpecError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kRuntimeError;
    }
}

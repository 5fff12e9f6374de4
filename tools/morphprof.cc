/**
 * @file
 * morphprof — the self-profile inspector.
 *
 * The morphprof subsystem (src/common/prof.hh) makes every driver emit
 * a morphprof-v1 JSON document describing where the simulator itself
 * spent its time: a merged per-thread call tree of MORPH_PROF_SCOPE
 * phases plus per-worker RunPool telemetry. This tool consumes those
 * documents:
 *
 *   morphprof PROFILE.json                  pretty-print one profile
 *   morphprof PROFILE.json --min-coverage F fail if the main thread's
 *                                           root time covers less than
 *                                           F of the wall window
 *   morphprof --diff BASE.json NEW.json     compare two profiles; a
 *                                           scope whose exclusive time
 *                                           grew beyond --threshold
 *                                           (and past the --min-ms
 *                                           noise floor) is a
 *                                           regression, mirroring
 *                                           `morphbench --compare`
 *
 * Scope times are wall-clock measurements, so --diff is
 * one-directional and thresholded like the morphbench kernel gate:
 * only slower-by-more-than-threshold fails, faster never does, and
 * scopes below the noise floor in both profiles are ignored.
 *
 * Exit codes follow the shared analysis-tool contract: 0 clean,
 * 1 findings (a diff regression or a coverage shortfall), 2 usage or
 * I/O error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/parse.hh"

namespace
{

using namespace morph;

constexpr int exitClean = 0;
constexpr int exitFindings = 1;
constexpr int exitUsage = 2;

void
usage()
{
    std::printf(
        "usage: morphprof PROFILE.json [--min-coverage F]\n"
        "       morphprof --diff BASE.json NEW.json [options]\n"
        "  --min-coverage F  fail (exit 1) when the profile covers\n"
        "                    less than F of the wall window (0..1)\n"
        "  --threshold F     --diff: max tolerated relative growth of\n"
        "                    a scope's exclusive time (default 0.5)\n"
        "  --min-ms F        --diff: noise floor; scopes under F ms\n"
        "                    exclusive in both profiles are ignored\n"
        "                    (default 1.0)\n"
        "Reads morphprof-v1 self-profiles (morphsim/morphbench/\n"
        "morphverify --prof-out). Exit codes: 0 clean, 1 findings,\n"
        "2 usage/IO.\n");
}

/** Load and parse one JSON document; exits 2 on I/O or parse error. */
JsonValue
loadJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "morphprof: cannot read %s\n",
                     path.c_str());
        std::exit(exitUsage);
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    bool ok = false;
    std::string error;
    JsonValue doc = jsonParse(buffer.str(), ok, error);
    if (!ok) {
        std::fprintf(stderr, "morphprof: %s: %s\n", path.c_str(),
                     error.c_str());
        std::exit(exitUsage);
    }
    return doc;
}

/** Require the morphprof-v1 schema marker; exits 2 otherwise. */
void
requireProfileSchema(const JsonValue &doc, const std::string &path)
{
    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->asString() != "morphprof-v1") {
        std::fprintf(stderr,
                     "morphprof: %s is not a morphprof-v1 document\n",
                     path.c_str());
        std::exit(exitUsage);
    }
}

// ---------------------------------------------------------------------
// Pretty-print mode
// ---------------------------------------------------------------------

int
printProfile(const std::string &path, double min_coverage)
{
    const JsonValue doc = loadJson(path);
    requireProfileSchema(doc, path);

    const JsonValue *meta = doc.find("meta");
    const JsonValue *wall = doc.find("wall_ns");
    const JsonValue *coverage = doc.find("coverage");
    const double wall_ms =
        wall ? wall->asNumber() / 1e6 : std::nan("");
    const double cov = coverage ? coverage->asNumber() : std::nan("");

    std::printf("morphprof: %s\n", path.c_str());
    if (meta) {
        for (const std::string &key : meta->keys()) {
            const JsonValue *value = meta->find(key);
            std::printf("  %s: %s\n", key.c_str(),
                        value ? value->asString().c_str() : "");
        }
    }
    std::printf("  wall %.3f ms, coverage %.1f%%\n", wall_ms,
                cov * 100.0);

    const JsonValue *threads = doc.find("threads");
    for (const JsonValue &thread :
         threads ? threads->elements() : std::vector<JsonValue>{}) {
        const JsonValue *name = thread.find("name");
        const JsonValue *root = thread.find("root_inclusive_ns");
        std::printf("thread %s (root %.3f ms)\n",
                    name ? name->asString().c_str() : "?",
                    root ? root->asNumber() / 1e6 : 0.0);
        std::printf("  %-40s %10s %12s %12s\n", "scope", "calls",
                    "incl_ms", "excl_ms");
        const JsonValue *scopes = thread.find("scopes");
        if (!scopes)
            continue;
        for (const JsonValue &scope : scopes->elements()) {
            const JsonValue *sname = scope.find("name");
            const JsonValue *depth = scope.find("depth");
            const JsonValue *calls = scope.find("calls");
            const JsonValue *incl = scope.find("inclusive_ns");
            const JsonValue *excl = scope.find("exclusive_ns");
            std::string label(
                std::size_t(depth ? depth->asNumber() : 0.0) * 2, ' ');
            label += sname ? sname->asString() : "?";
            std::printf("  %-40s %10.0f %12.3f %12.3f\n",
                        label.c_str(),
                        calls ? calls->asNumber() : 0.0,
                        incl ? incl->asNumber() / 1e6 : 0.0,
                        excl ? excl->asNumber() / 1e6 : 0.0);
        }
    }

    const JsonValue *pools = doc.find("pools");
    for (const JsonValue &pool :
         pools ? pools->elements() : std::vector<JsonValue>{}) {
        const JsonValue *label = pool.find("pool");
        const JsonValue *workers = pool.find("workers");
        if (!workers)
            continue;
        double tasks = 0;
        for (const JsonValue &w : workers->elements()) {
            const JsonValue *t = w.find("tasks");
            tasks += t ? t->asNumber() : 0.0;
        }
        std::printf("pool %s: %zu workers, %.0f tasks\n",
                    label ? label->asString().c_str() : "?",
                    workers->elements().size(), tasks);
        for (const JsonValue &w : workers->elements()) {
            const JsonValue *idx = w.find("worker");
            const JsonValue *t = w.find("tasks");
            const JsonValue *idle = w.find("idle_ns");
            std::printf("  worker %.0f: tasks %.0f, idle %.3f ms\n",
                        idx ? idx->asNumber() : 0.0,
                        t ? t->asNumber() : 0.0,
                        idle ? idle->asNumber() / 1e6 : 0.0);
        }
    }

    if (min_coverage > 0.0 &&
        (!std::isfinite(cov) || cov < min_coverage)) {
        std::fprintf(stderr,
                     "morphprof: FAIL coverage %.3f below required"
                     " %.3f\n",
                     cov, min_coverage);
        return exitFindings;
    }
    return exitClean;
}

// ---------------------------------------------------------------------
// Diff mode
// ---------------------------------------------------------------------

struct ScopeSample
{
    std::string key; ///< "thread;path"
    double exclusiveNs = 0.0;
};

std::vector<ScopeSample>
flattenScopes(const JsonValue &doc)
{
    std::vector<ScopeSample> out;
    const JsonValue *threads = doc.find("threads");
    if (!threads)
        return out;
    for (const JsonValue &thread : threads->elements()) {
        const JsonValue *tname = thread.find("name");
        const JsonValue *scopes = thread.find("scopes");
        if (!tname || !scopes)
            continue;
        for (const JsonValue &scope : scopes->elements()) {
            const JsonValue *path = scope.find("path");
            const JsonValue *excl = scope.find("exclusive_ns");
            if (!path)
                continue;
            out.push_back({tname->asString() + ";" + path->asString(),
                           excl ? excl->asNumber() : 0.0});
        }
    }
    return out;
}

int
diffProfiles(const std::string &base_path, const std::string &new_path,
             double threshold, double min_ms)
{
    const JsonValue base = loadJson(base_path);
    const JsonValue fresh = loadJson(new_path);
    requireProfileSchema(base, base_path);
    requireProfileSchema(fresh, new_path);

    const std::vector<ScopeSample> base_scopes = flattenScopes(base);
    const std::vector<ScopeSample> new_scopes = flattenScopes(fresh);
    const double floor_ns = min_ms * 1e6;

    int regressions = 0;
    for (const ScopeSample &b : base_scopes) {
        const ScopeSample *n = nullptr;
        for (const ScopeSample &candidate : new_scopes)
            if (candidate.key == b.key)
                n = &candidate;
        if (n == nullptr)
            continue; // instrumentation changed; not a regression
        // Noise floor: sub-millisecond scopes jitter wildly.
        if (b.exclusiveNs < floor_ns && n->exclusiveNs < floor_ns)
            continue;
        const double growth =
            b.exclusiveNs <= 0.0
                ? std::numeric_limits<double>::infinity()
                : (n->exclusiveNs - b.exclusiveNs) / b.exclusiveNs;
        if (growth > threshold) {
            std::fprintf(stderr,
                         "morphprof: FAIL %s: exclusive %.3f ->"
                         " %.3f ms (+%.0f%%, threshold +%.0f%%)\n",
                         b.key.c_str(), b.exclusiveNs / 1e6,
                         n->exclusiveNs / 1e6, growth * 100.0,
                         threshold * 100.0);
            ++regressions;
        } else {
            std::fprintf(stderr,
                         "morphprof: ok   %s: exclusive %.3f ->"
                         " %.3f ms\n",
                         b.key.c_str(), b.exclusiveNs / 1e6,
                         n->exclusiveNs / 1e6);
        }
    }
    if (regressions) {
        std::fprintf(stderr,
                     "morphprof: %d scope regression(s) beyond"
                     " +%.0f%%\n",
                     regressions, threshold * 100.0);
        return exitFindings;
    }
    std::fprintf(stderr, "morphprof: no scope regressions\n");
    return exitClean;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string profile_path;
    std::string diff_base;
    std::string diff_new;
    double min_coverage = 0.0;
    double threshold = 0.5;
    double min_ms = 1.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "morphprof: option %s needs a value\n",
                             arg.c_str());
                std::exit(exitUsage);
            }
            return argv[++i];
        };
        if (arg == "--diff") {
            diff_base = value();
            diff_new = value();
        } else if (arg == "--min-coverage") {
            min_coverage = numberOption("morphprof", arg, value());
        } else if (arg == "--threshold") {
            threshold = numberOption("morphprof", arg, value());
        } else if (arg == "--min-ms") {
            min_ms = numberOption("morphprof", arg, value());
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return exitClean;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            std::fprintf(stderr, "morphprof: unknown option '%s'\n",
                         arg.c_str());
            return exitUsage;
        } else if (profile_path.empty()) {
            profile_path = arg;
        } else {
            usage();
            std::fprintf(stderr, "morphprof: more than one profile\n");
            return exitUsage;
        }
    }

    if (profile_path.empty() == diff_base.empty()) {
        usage();
        return exitUsage;
    }
    if (!diff_base.empty())
        return diffProfiles(diff_base, diff_new, threshold, min_ms);
    return printProfile(profile_path, min_coverage);
}

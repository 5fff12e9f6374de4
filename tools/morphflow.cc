/**
 * @file
 * morphflow — secret-flow, determinism and worker-isolation static
 * analyzer.
 *
 * morphflow enforces three source-level contracts that neither the
 * type system nor the test suite can see:
 *
 *   1. Secret flow. Key and pad material annotated with MORPH_SECRET
 *      (common/annotations.hh) must never influence a branch
 *      condition, an array subscript, or a logging call, and must be
 *      wiped before leaving scope — unless an explicit
 *      MORPH_DECLASSIFY boundary or a waiver comment says otherwise.
 *      The one known exception, the table-based AES S-box, is a
 *      waived, documented finding rather than silence.
 *
 *   2. Determinism. Simulation results must be a pure function of the
 *      configuration: rand()/time()/std::random_device and range-for
 *      iteration over unordered containers are banned in src/sim,
 *      src/secmem, bench/ and tools/.
 *
 *   3. Worker isolation. Lambdas handed to RunPool::forEach (or any
 *      pool- or engine-named receiver) must not mutate captured state
 *      except through index-addressed stores, locks they take
 *      themselves, atomics, or MORPH_SHARD_LOCAL state
 *      (race-worker-escape). Mutable statics and namespace-scope
 *      variables in src/{common,sim,secmem} must carry a concurrency
 *      annotation, be const, thread_local, or atomic
 *      (race-naked-static). The guarded-state contracts themselves
 *      are checked by Clang's -Wthread-safety (docs/CONCURRENCY.md).
 *
 * Inputs: the translation units listed in a CMake
 * compile_commands.json (--compile-db) plus every header under
 * <root>/{src,tools,bench}, or explicit file arguments, which get
 * every rule family regardless of path — this is how the WILL_FAIL
 * fixtures run. --json OUT writes the findings artifact CI uploads.
 *
 * Waivers: `// morphflow: allow(<rule>): reason` on the finding line
 * or the line above; `// morphflow: allow-file(<rule>): reason`
 * anywhere in the file. Waived findings are reported separately and
 * never fail the run.
 *
 * Exit status: 0 clean, 1 unwaived findings, 2 usage or I/O error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/flow_analyzer.hh"
#include "common/json.hh"

namespace
{

using namespace morph;
using namespace morph::analysis;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: morphflow [--compile-db PATH] [--root DIR]\n"
        "                 [--json OUT] [--quiet] [file...]\n"
        "\n"
        "Analyze the translation units of a compile database (plus\n"
        "headers under <root>/{src,tools,bench}) for secret-flow,\n"
        "determinism and worker-isolation violations, or analyze\n"
        "explicit files with every rule family enabled.\n");
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Parse @p json_text (a CMake compile_commands.json) into the sorted,
 *  de-duplicated list of absolute source paths. Only the `file` and
 *  `directory` fields are read: relative `file` entries resolve
 *  against their `directory`. False with @p error on malformed
 *  input. */
bool
readCompileDb(const std::string &json_text,
              std::vector<std::string> &files, std::string &error)
{
    bool ok = false;
    const JsonValue root = jsonParse(json_text, ok, error);
    if (!ok)
        return false;
    if (!root.isArray()) {
        error = "compile database root is not a JSON array";
        return false;
    }
    for (const JsonValue &entry : root.elements()) {
        if (!entry.isObject())
            continue;
        const JsonValue *file = entry.find("file");
        if (file == nullptr || !file->isString())
            continue;
        std::string path = file->asString();
        if (!path.empty() && path.front() != '/') {
            const JsonValue *dir = entry.find("directory");
            if (dir != nullptr && dir->isString())
                path = dir->asString() + "/" + path;
        }
        files.push_back(std::move(path));
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return true;
}

/** Repo-relative display path: strips @p root, keeps others whole. */
std::string
displayPath(const std::string &path, const std::string &root)
{
    if (!root.empty() && path.size() > root.size() + 1 &&
        path.compare(0, root.size(), root) == 0 &&
        path[root.size()] == '/')
        return path.substr(root.size() + 1);
    return path;
}

/** The determinism family applies to simulator / secure-memory code
 *  and everything that produces user-visible output. */
bool
inDeterminismScope(const std::string &rel_path)
{
    return rel_path.find("src/sim") != std::string::npos ||
           rel_path.find("src/secmem") != std::string::npos ||
           rel_path.rfind("bench/", 0) == 0 ||
           rel_path.rfind("tools/", 0) == 0 ||
           rel_path.find("/bench/") != std::string::npos ||
           rel_path.find("/tools/") != std::string::npos;
}

/** race-naked-static applies to the shared simulator core — the code
 *  RunPool workers actually run concurrently. */
bool
inStaticScope(const std::string &rel_path)
{
    return rel_path.find("src/common") != std::string::npos ||
           rel_path.find("src/sim") != std::string::npos ||
           rel_path.find("src/secmem") != std::string::npos;
}

/** Analysis covers first-party code only. */
bool
excluded(const std::string &rel_path)
{
    return rel_path.find("tests/") != std::string::npos ||
           rel_path.find("examples/") != std::string::npos ||
           rel_path.find("build/") != std::string::npos;
}

std::vector<std::string>
findHeaders(const std::string &root)
{
    namespace fs = std::filesystem;
    std::vector<std::string> headers;
    for (const char *sub : {"src", "tools", "bench"}) {
        const fs::path dir = fs::path(root) / sub;
        std::error_code ec;
        if (!fs::is_directory(dir, ec))
            continue;
        for (fs::recursive_directory_iterator
                 it(dir, fs::directory_options::skip_permission_denied,
                    ec),
             end;
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (it->is_regular_file(ec) &&
                it->path().extension() == ".hh")
                headers.push_back(it->path().string());
        }
    }
    std::sort(headers.begin(), headers.end());
    return headers;
}

void
printFinding(const Finding &f, const char *tag)
{
    std::printf("%s:%u: %s[%s] %s\n", f.file.c_str(), f.line, tag,
                f.rule.c_str(), f.message.c_str());
}

bool
writeJson(const std::string &path, const AnalysisResult &result,
          std::size_t files_analyzed, double analysis_ms)
{
    std::ostringstream out;
    const auto emit = [&out](const std::vector<Finding> &list) {
        bool first = true;
        for (const Finding &f : list) {
            if (!first)
                out << ",";
            first = false;
            out << "\n    {\"rule\": \"" << jsonEscape(f.rule)
                << "\", \"file\": \"" << jsonEscape(f.file)
                << "\", \"line\": " << f.line << ", \"symbol\": \""
                << jsonEscape(f.symbol) << "\", \"message\": \""
                << jsonEscape(f.message) << "\"}";
        }
        if (!first)
            out << "\n  ";
    };
    char timing[64];
    std::snprintf(timing, sizeof timing,
                  "  \"timing\": {\"analysis_ms\": %.1f},\n",
                  analysis_ms);
    out << "{\n  \"tool\": \"morphflow\",\n";
    out << "  \"files_analyzed\": " << files_analyzed << ",\n";
    out << timing;
    out << "  \"findings\": [";
    emit(result.findings);
    out << "],\n  \"waived\": [";
    emit(result.waived);
    out << "],\n  \"counts\": {\"findings\": "
        << result.findings.size()
        << ", \"waived\": " << result.waived.size() << "}\n}\n";
    std::ofstream file(path, std::ios::binary);
    if (!file)
        return false;
    file << out.str();
    return static_cast<bool>(file);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string compile_db;
    std::string root;
    std::string json_out;
    bool quiet = false;
    std::vector<std::string> explicit_files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](std::string &slot) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "morphflow: %s needs a value\n",
                             arg.c_str());
                return false;
            }
            slot = argv[++i];
            return true;
        };
        if (arg == "--compile-db") {
            if (!value(compile_db))
                return 2;
        } else if (arg == "--root") {
            if (!value(root))
                return 2;
        } else if (arg == "--json") {
            if (!value(json_out))
                return 2;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "morphflow: unknown flag %s\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            explicit_files.push_back(arg);
        }
    }
    if (explicit_files.empty() && compile_db.empty()) {
        usage();
        return 2;
    }
    if (!root.empty()) {
        // Compile-db entries are absolute; a relative --root (CI
        // passes `.`) must be made absolute for paths to strip.
        root = std::filesystem::absolute(root)
                   .lexically_normal()
                   .string();
        while (root.size() > 1 && root.back() == '/')
            root.pop_back();
    }

    std::vector<std::string> paths;
    if (!explicit_files.empty()) {
        paths = explicit_files;
    } else {
        std::string db_text;
        if (!readFile(compile_db, db_text)) {
            std::fprintf(stderr, "morphflow: cannot read %s\n",
                         compile_db.c_str());
            return 2;
        }
        std::string error;
        if (!readCompileDb(db_text, paths, error)) {
            std::fprintf(stderr, "morphflow: %s: %s\n",
                         compile_db.c_str(), error.c_str());
            return 2;
        }
        for (const std::string &hh : findHeaders(
                 root.empty() ? std::string(".") : root))
            paths.push_back(hh);
    }

    std::vector<SourceText> sources;
    for (const std::string &path : paths) {
        const std::string rel = displayPath(path, root);
        // Explicit file arguments always get the full rule set; the
        // batch walk covers first-party code only.
        const bool is_explicit = !explicit_files.empty();
        if (!is_explicit && excluded(rel))
            continue;
        SourceText src;
        src.path = rel;
        src.determinismScope = is_explicit || inDeterminismScope(rel);
        src.staticScope = is_explicit || inStaticScope(rel);
        if (!readFile(path, src.text)) {
            std::fprintf(stderr, "morphflow: cannot read %s\n",
                         path.c_str());
            return 2;
        }
        sources.push_back(std::move(src));
    }

    using clk = std::chrono::steady_clock;
    const clk::time_point t0 = clk::now();
    const AnalysisResult result = analyzeSources(sources);
    const double analysis_ms =
        std::chrono::duration<double, std::milli>(clk::now() - t0).count();

    if (!quiet) {
        for (const Finding &f : result.waived)
            printFinding(f, "waived ");
        for (const Finding &f : result.findings)
            printFinding(f, "");
        std::printf(
            "morphflow: %zu file%s, %zu finding%s, %zu waived "
            "(%.1f ms)\n",
            sources.size(), sources.size() == 1 ? "" : "s",
            result.findings.size(),
            result.findings.size() == 1 ? "" : "s",
            result.waived.size(), analysis_ms);
    }
    if (!json_out.empty() &&
        !writeJson(json_out, result, sources.size(), analysis_ms)) {
        std::fprintf(stderr, "morphflow: cannot write %s\n",
                     json_out.c_str());
        return 2;
    }
    return result.findings.empty() ? 0 : 1;
}

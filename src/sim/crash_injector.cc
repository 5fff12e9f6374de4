#include "sim/crash_injector.hh"

#include <vector>

#include "common/check.hh"
#include "common/log.hh"
#include "workloads/workload_db.hh"

namespace morph
{

CrashReport
injectCrash(const RunConfig &config, std::uint64_t cut)
{
    if (!config.secmem.persist.enabled)
        fatal("crash injector: the model's persist domain is disabled");
    const WorkloadSpec *spec = findWorkload(config.workload);
    if (!spec)
        fatal("crash injector: unknown workload %s",
              config.workload.c_str());

    // One core, no DRAM timing: the persist domain only observes the
    // controller, so the cheapest faithful drive is the raw access
    // stream. Crashing *is* stopping — nothing is drained.
    SecureMemoryModel model(config.secmem);
    auto trace = makeWorkloadTrace(*spec, 0, 1, config.secmem.memBytes,
                                   config.options.seed,
                                   config.options.footprintScale);

    std::vector<MemAccess> scratch;
    for (std::uint64_t i = 0; i < cut; ++i) {
        const TraceEntry entry = trace->next();
        scratch.clear();
        model.onDataAccess(entry.line, entry.type, scratch);
    }

    const PersistDomain *domain = model.persistDomain();
    MORPH_CHECK(domain != nullptr);

    CrashReport report;
    report.cutAccesses = cut;
    report.persist = domain->stats();
    report.recovery = domain->recover();
    report.fingerprint = domain->durableFingerprint();
    return report;
}

} // namespace morph

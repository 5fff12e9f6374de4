#include "common/stat_registry.hh"

#include <cmath>

#include "common/check.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace morph
{

bool
isValidStatName(const std::string &name)
{
    if (name.empty())
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.';
        if (!ok)
            return false;
    }
    return true;
}

void
StatRegistry::checkName(const std::string &name) const
{
    if (!isValidStatName(name))
        panic("stat name '%s' violates [a-z0-9_.]+", name.c_str());
    if (has(name))
        panic("stat name '%s' registered twice", name.c_str());
}

void
StatRegistry::counter(const std::string &name,
                      const std::uint64_t *value,
                      const std::string &desc)
{
    MORPH_CHECK(value != nullptr);
    counter(
        name, [value]() { return *value; }, desc);
}

void
StatRegistry::counter(const std::string &name,
                      std::function<std::uint64_t()> read,
                      const std::string &desc)
{
    checkName(name);
    auto fn = std::move(read);
    scalars_.push_back({name, desc, StatKind::Counter,
                        [fn]() { return double(fn()); }});
}

void
StatRegistry::gauge(const std::string &name,
                    std::function<double()> read,
                    const std::string &desc)
{
    checkName(name);
    scalars_.push_back({name, desc, StatKind::Gauge, std::move(read)});
}

void
StatRegistry::scalar(const std::string &name, double value,
                     const std::string &desc)
{
    gauge(
        name, [value]() { return value; }, desc);
}

namespace
{

HistogramSnapshot
snapshotFixed(const Histogram &h)
{
    HistogramSnapshot snap;
    snap.count = h.count();
    snap.mean = h.mean();
    snap.p50 = h.percentile(0.50);
    snap.p95 = h.percentile(0.95);
    snap.p99 = h.percentile(0.99);
    for (unsigned i = 0; i < h.size(); ++i)
        if (h.bucket(i))
            snap.buckets.push_back(
                {h.bucketLo(i), h.bucketHi(i), h.bucket(i)});
    return snap;
}

HistogramSnapshot
snapshotExp(const ExpHistogram &h)
{
    HistogramSnapshot snap;
    snap.count = h.count();
    snap.mean = h.mean();
    snap.p50 = h.percentile(0.50);
    snap.p95 = h.percentile(0.95);
    snap.p99 = h.percentile(0.99);
    for (unsigned i = 0; i < h.size(); ++i)
        if (h.bucket(i))
            snap.buckets.push_back({double(h.bucketLo(i)),
                                    double(h.bucketHi(i)),
                                    h.bucket(i)});
    return snap;
}

} // namespace

void
StatRegistry::histogram(const std::string &name, const Histogram *h,
                        const std::string &desc)
{
    MORPH_CHECK(h != nullptr);
    checkName(name);
    histograms_.push_back(
        {name, desc, [h]() { return snapshotFixed(*h); }});
}

void
StatRegistry::histogram(const std::string &name, const ExpHistogram *h,
                        const std::string &desc)
{
    MORPH_CHECK(h != nullptr);
    checkName(name);
    histograms_.push_back(
        {name, desc, [h]() { return snapshotExp(*h); }});
}

const std::string &
StatRegistry::scalarName(std::size_t i) const
{
    return scalars_.at(i).name;
}

StatKind
StatRegistry::scalarKind(std::size_t i) const
{
    return scalars_.at(i).kind;
}

const std::string &
StatRegistry::scalarDesc(std::size_t i) const
{
    return scalars_.at(i).desc;
}

double
StatRegistry::scalarValue(std::size_t i) const
{
    return scalars_.at(i).read();
}

std::vector<double>
StatRegistry::snapshotScalars() const
{
    std::vector<double> values;
    values.reserve(scalars_.size());
    for (const Scalar &s : scalars_)
        values.push_back(s.read());
    return values;
}

double
StatRegistry::value(const std::string &name) const
{
    for (const Scalar &s : scalars_)
        if (s.name == name)
            return s.read();
    return std::nan("");
}

bool
StatRegistry::has(const std::string &name) const
{
    for (const Scalar &s : scalars_)
        if (s.name == name)
            return true;
    for (const Hist &h : histograms_)
        if (h.name == name)
            return true;
    return false;
}

const std::string &
StatRegistry::histogramName(std::size_t i) const
{
    return histograms_.at(i).name;
}

HistogramSnapshot
StatRegistry::histogramSnapshot(std::size_t i) const
{
    return histograms_.at(i).snapshot();
}

void
StatRegistry::freeze()
{
    for (Scalar &s : scalars_) {
        const double value = s.read();
        s.read = [value]() { return value; };
    }
    for (Hist &h : histograms_) {
        const HistogramSnapshot snap = h.snapshot();
        h.snapshot = [snap]() { return snap; };
    }
}

void
StatRegistry::dumpText(std::ostream &os,
                       const std::string &prefix) const
{
    for (const Scalar &s : scalars_)
        os << prefix << "." << s.name << " "
           << jsonNumber(s.read()) << "\n";
    for (const Hist &h : histograms_) {
        const HistogramSnapshot snap = h.snapshot();
        const std::string base = prefix + "." + h.name;
        os << base << ".count " << snap.count << "\n";
        os << base << ".mean " << jsonNumber(snap.mean) << "\n";
        os << base << ".p50 " << jsonNumber(snap.p50) << "\n";
        os << base << ".p95 " << jsonNumber(snap.p95) << "\n";
        os << base << ".p99 " << jsonNumber(snap.p99) << "\n";
    }
}

void
RunMeta::set(const std::string &key, const std::string &value)
{
    for (auto &kv : entries) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    entries.emplace_back(key, value);
}

std::string
RunMeta::get(const std::string &key) const
{
    for (const auto &kv : entries)
        if (kv.first == key)
            return kv.second;
    return "";
}

void
EpochSeries::baseline(const StatRegistry &registry)
{
    prev_ = registry.snapshotScalars();
    records_.clear();
    baselined_ = true;
}

void
EpochSeries::sample(const StatRegistry &registry,
                    std::uint64_t accesses_per_core)
{
    MORPH_CHECK(baselined_);
    Record record;
    record.index = records_.size();
    record.accessesPerCore = accesses_per_core;
    record.values.reserve(prev_.size());
    // Only the stats present at baseline(): the series is rectangular
    // even if post-run scalars are registered later.
    for (std::size_t i = 0; i < prev_.size(); ++i) {
        const double now = registry.scalarValue(i);
        if (registry.scalarKind(i) == StatKind::Counter) {
            record.values.push_back(now - prev_[i]);
            prev_[i] = now;
        } else {
            record.values.push_back(now);
        }
    }
    records_.push_back(std::move(record));
}

namespace
{

const char *
kindName(StatKind kind)
{
    return kind == StatKind::Counter ? "counter" : "gauge";
}

} // namespace

void
writeStatsJson(std::ostream &os, const StatRegistry &registry,
               const RunMeta &meta, const EpochSeries *epochs)
{
    os << "{\n  \"schema\": \"morphscope-v1\",\n  \"meta\": {";
    for (std::size_t i = 0; i < meta.entries.size(); ++i) {
        if (i)
            os << ",";
        os << "\n    \"" << jsonEscape(meta.entries[i].first)
           << "\": \"" << jsonEscape(meta.entries[i].second) << "\"";
    }
    os << (meta.entries.empty() ? "},\n" : "\n  },\n");

    os << "  \"totals\": {";
    for (std::size_t i = 0; i < registry.numScalars(); ++i) {
        if (i)
            os << ",";
        os << "\n    \"" << jsonEscape(registry.scalarName(i))
           << "\": " << jsonNumber(registry.scalarValue(i));
    }
    os << (registry.numScalars() == 0 ? "},\n" : "\n  },\n");

    os << "  \"kinds\": {";
    for (std::size_t i = 0; i < registry.numScalars(); ++i) {
        if (i)
            os << ",";
        os << "\n    \"" << jsonEscape(registry.scalarName(i))
           << "\": \"" << kindName(registry.scalarKind(i)) << "\"";
    }
    os << (registry.numScalars() == 0 ? "},\n" : "\n  },\n");

    os << "  \"histograms\": {";
    for (std::size_t i = 0; i < registry.numHistograms(); ++i) {
        if (i)
            os << ",";
        const HistogramSnapshot snap = registry.histogramSnapshot(i);
        os << "\n    \"" << jsonEscape(registry.histogramName(i))
           << "\": {"
           << "\"count\": " << snap.count
           << ", \"mean\": " << jsonNumber(snap.mean)
           << ", \"p50\": " << jsonNumber(snap.p50)
           << ", \"p95\": " << jsonNumber(snap.p95)
           << ", \"p99\": " << jsonNumber(snap.p99)
           << ", \"buckets\": [";
        for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
            if (b)
                os << ", ";
            os << "{\"lo\": " << jsonNumber(snap.buckets[b].lo)
               << ", \"hi\": " << jsonNumber(snap.buckets[b].hi)
               << ", \"count\": " << snap.buckets[b].count << "}";
        }
        os << "]}";
    }
    os << (registry.numHistograms() == 0 ? "}" : "\n  }");

    if (epochs && epochs->active()) {
        os << ",\n  \"epochs\": {\n    \"stats\": [";
        for (std::size_t i = 0; i < epochs->numStats(); ++i) {
            if (i)
                os << ", ";
            os << "\"" << jsonEscape(registry.scalarName(i)) << "\"";
        }
        os << "],\n    \"samples\": [";
        const auto &records = epochs->records();
        for (std::size_t r = 0; r < records.size(); ++r) {
            if (r)
                os << ",";
            os << "\n      {\"index\": " << records[r].index
               << ", \"accesses_per_core\": "
               << records[r].accessesPerCore << ", \"values\": [";
            for (std::size_t i = 0; i < records[r].values.size();
                 ++i) {
                if (i)
                    os << ", ";
                os << jsonNumber(records[r].values[i]);
            }
            os << "]}";
        }
        os << (records.empty() ? "]\n  }" : "\n    ]\n  }");
    }
    os << "\n}\n";
}

std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string quoted = "\"";
    for (const char c : field) {
        if (c == '"')
            quoted += "\"\"";
        else
            quoted.push_back(c);
    }
    quoted += "\"";
    return quoted;
}

void
writeStatsCsv(std::ostream &os, const StatRegistry &registry,
              const EpochSeries *epochs)
{
    if (!epochs || !epochs->active()) {
        os << "stat,value\n";
        for (std::size_t i = 0; i < registry.numScalars(); ++i)
            os << csvField(registry.scalarName(i)) << ","
               << jsonNumber(registry.scalarValue(i)) << "\n";
        return;
    }

    os << "epoch,accesses_per_core";
    for (std::size_t i = 0; i < epochs->numStats(); ++i)
        os << "," << csvField(registry.scalarName(i));
    os << "\n";
    for (const EpochSeries::Record &record : epochs->records()) {
        os << record.index << "," << record.accessesPerCore;
        for (const double v : record.values)
            os << "," << jsonNumber(v);
        os << "\n";
    }
    // Totals row: counters as final totals, gauges as final values.
    os << "total,";
    for (std::size_t i = 0; i < epochs->numStats(); ++i)
        os << "," << jsonNumber(registry.scalarValue(i));
    os << "\n";
}

} // namespace morph

#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "common/json.hh"

namespace perfbench {

namespace {

thread_local uint64_t tlCurrent = 0; // innermost open Span's id

int64_t
nsSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
}

/** Total span time and self time (span minus the union of its
 *  children's intervals clipped to the span). */
struct Totals
{
    uint64_t count = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
};

std::string
totalsJson(const std::map<std::string, Totals> &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, t] : m) {
        if (!first)
            out += ",";
        first = false;
        out += "\n  " + dtann::jsonString(key) +
            ":{\"count\":" + std::to_string(t.count) +
            ",\"total_ms\":" + dtann::jsonNumber(t.totalNs / 1e6) +
            ",\"self_ms\":" + dtann::jsonNumber(t.selfNs / 1e6) + "}";
    }
    return out + "\n }";
}

} // namespace

uint64_t
Tracer::reserve()
{
    std::lock_guard<std::mutex> lock(mu);
    return nextId++;
}

void
Tracer::finish(uint64_t id, const std::string &name,
               const std::string &cell, uint64_t parent,
               Clock::time_point start, Clock::time_point end)
{
    SpanRecord r{id, parent, name, cell, nsSince(origin, start),
                 nsSince(origin, end)};
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(std::move(r));
}

uint64_t
Tracer::add(const std::string &name, const std::string &cell,
            uint64_t parent, Clock::time_point start,
            Clock::time_point end)
{
    uint64_t id = reserve();
    finish(id, name, cell, parent, start, end);
    return id;
}

void
Tracer::write(const std::string &spansPath,
              const std::string &summaryPath) const
{
    std::vector<SpanRecord> all;
    {
        std::lock_guard<std::mutex> lock(mu);
        all = spans;
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.startNs != b.startNs ? a.startNs < b.startNs
                                                : a.id < b.id;
              });

    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    for (const SpanRecord &s : all)
        if (s.parent != 0)
            children[s.parent].push_back({s.startNs, s.endNs});

    std::map<std::string, Totals> byName, byLayer;
    std::ofstream out(spansPath, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write '" + spansPath + "'");
    for (const SpanRecord &s : all) {
        int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second; // already in start order
            int64_t lo = s.startNs, hi = s.startNs;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startNs);
                b = std::min(b, s.endNs);
                if (b <= a)
                    continue;
                if (a > hi) {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            covered += hi - lo;
        }
        int64_t dur = s.endNs - s.startNs;
        int64_t self = dur - covered;
        std::string layer = s.name.substr(0, s.name.find('.'));
        for (Totals *t : {&byName[s.name], &byLayer[layer]}) {
            ++t->count;
            t->totalNs += dur;
            t->selfNs += self;
        }
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":" << dtann::jsonString(s.name)
            << ",\"cell\":" << dtann::jsonString(s.cell)
            << ",\"start_us\":" << s.startNs / 1000
            << ",\"dur_us\":" << dur / 1000
            << ",\"self_us\":" << self / 1000 << "}\n";
    }

    std::ofstream sum(summaryPath, std::ios::trunc);
    if (!sum)
        throw std::runtime_error("cannot write '" + summaryPath + "'");
    sum << "{\"layers\":" << totalsJson(byLayer)
        << ",\n\"names\":" << totalsJson(byName) << "}\n";
}

Span::Span(Tracer *tracer_, std::string name_, std::string cell_,
           uint64_t parent_)
    : tracer(tracer_), name(std::move(name_)), cell(std::move(cell_)),
      start(Clock::now())
{
    if (tracer == nullptr)
        return;
    self = tracer->reserve();
    parent = parent_ == kCurrent ? tlCurrent : parent_;
    saved = tlCurrent;
    tlCurrent = self;
}

double
Span::stop()
{
    if (elapsed >= 0.0)
        return elapsed;
    Clock::time_point end = Clock::now();
    elapsed = std::chrono::duration<double>(end - start).count();
    if (tracer != nullptr) {
        tracer->finish(self, name, cell, parent, start, end);
        tlCurrent = saved;
    }
    return elapsed;
}

Span::~Span() { stop(); }

} // namespace perfbench

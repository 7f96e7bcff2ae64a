#include "model/model.hh"

#include "relation/kernels.hh"

namespace lkmm
{

std::string
Violation::toString(const CandidateExecution &ex) const
{
    std::string out = axiom;
    if (cycle.empty())
        return out;
    out += " cycle:";
    for (EventId e : cycle) {
        out += " ";
        out += ex.events[e].label.empty() ? ("e" + std::to_string(e))
                                          : ex.events[e].label;
    }
    return out;
}

std::optional<Violation>
requireAcyclic(const Relation &r, std::string_view axiom)
{
    if (rel::acyclicWithLevels(r))
        return std::nullopt;
    Violation v;
    v.axiom = axiom;
    v.cycle = *r.findCycle();
    return v;
}

std::optional<Violation>
requireIrreflexive(const Relation &r, std::string_view axiom)
{
    for (EventId e = 0; e < r.size(); ++e) {
        if (r.contains(e, e)) {
            Violation v;
            v.axiom = axiom;
            v.cycle = {e};
            return v;
        }
    }
    return std::nullopt;
}

std::optional<Violation>
requireEmpty(const Relation &r, std::string_view axiom)
{
    if (r.empty())
        return std::nullopt;
    Violation v;
    v.axiom = axiom;
    auto pairs = r.pairs();
    v.cycle = {pairs[0].first, pairs[0].second};
    return v;
}

} // namespace lkmm

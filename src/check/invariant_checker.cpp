#include "check/invariant_checker.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/log.hpp"
#include "sim/trace.hpp"

namespace sriov::check {

const char *
invariantName(Invariant inv)
{
    switch (inv) {
    case Invariant::SchedulePast: return "schedule-in-past";
    case Invariant::TimeRegression: return "time-regression";
    case Invariant::EventLeak: return "event-leak";
    case Invariant::RingAccounting: return "ring-accounting";
    case Invariant::RingOverflow: return "ring-overflow";
    case Invariant::PacketConservation: return "packet-conservation";
    case Invariant::SwitchAccounting: return "switch-accounting";
    case Invariant::MaskedDelivery: return "masked-delivery";
    case Invariant::SpuriousEoi: return "spurious-eoi";
    case Invariant::Count: break;
    }
    return "unknown";
}

std::string
Violation::toString() const
{
    std::string out = "[";
    out += when.toString();
    out += "] ";
    out += invariantName(inv);
    out += ": ";
    out += detail;
    return out;
}

InvariantChecker::InvariantChecker(sim::EventQueue &eq) : eq_(eq)
{
    if (eq_.observer() != nullptr)
        sim::fatal("event queue already has an observer");
    eq_.setObserver(this);
}

InvariantChecker::~InvariantChecker()
{
    if (eq_.observer() == this)
        eq_.setObserver(nullptr);
}

void
InvariantChecker::violate(Invariant inv, std::string detail)
{
    sim::warn("invariant violated: %s: %s", invariantName(inv),
              detail.c_str());
    violations_.push_back(Violation{inv, eq_.now(), std::move(detail)});
}

void
InvariantChecker::onSchedulePast(sim::Time when, sim::Time now)
{
    violate(Invariant::SchedulePast,
            "event scheduled at " + when.toString() + " < now "
                + now.toString() + " (clamped)");
}

void
InvariantChecker::onExecute(sim::Time when, sim::Time now, std::uint64_t seq,
                            const char *tag)
{
    if (when < now) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "event #%llu (tag '%s') at %s executes before now %s",
                      static_cast<unsigned long long>(seq),
                      tag != nullptr ? tag : "", when.toString().c_str(),
                      now.toString().c_str());
        violate(Invariant::TimeRegression, buf);
    }
}

void
InvariantChecker::watchRing(std::string name, const nic::DescRing &ring,
                            bool must_not_drop)
{
    rings_.push_back(
        WatchedRing{std::move(name), &ring, must_not_drop, ring.overflows()});
}

void
InvariantChecker::watchWire(std::string name, const nic::Wire &wire)
{
    wires_.push_back(WatchedWire{std::move(name), &wire});
}

void
InvariantChecker::watchSwitch(std::string name, const nic::L2Switch &sw)
{
    switches_.push_back(WatchedSwitch{std::move(name), &sw});
}

void
InvariantChecker::watchLapic(std::string name, const intr::Lapic &lapic)
{
    lapics_.push_back(
        WatchedLapic{std::move(name), &lapic, lapic.spuriousEois()});
}

void
InvariantChecker::watchRouter(intr::InterruptRouter &router)
{
    router.setDeliveryTap(
        [this](pci::Rid source, const pci::MsiMessage &msg) {
            onRouterDelivery(source, msg);
        });
}

void
InvariantChecker::watchFunction(const pci::PciFunction &fn)
{
    functions_.push_back(&fn);
}

void
InvariantChecker::unwatchFunction(const pci::PciFunction &fn)
{
    std::erase(functions_, &fn);
}

void
InvariantChecker::onRouterDelivery(pci::Rid source,
                                   const pci::MsiMessage &msg)
{
    for (const pci::PciFunction *fn : functions_) {
        if (fn->rid() != source)
            continue;
        if (const pci::MsixCapability *mx = fn->msix()) {
            bool programmed = false;
            for (unsigned i = 0; i < mx->tableSize(); ++i) {
                if (mx->entry(i).msg.vector() != msg.vector())
                    continue;
                programmed = true;
                if (mx->deliverable(i))
                    return;    // a matching entry may fire: OK
            }
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "%s signalled vector %u %s", fn->name().c_str(),
                          msg.vector(),
                          programmed ? "while masked/disabled"
                                     : "not programmed in its MSI-X table");
            violate(Invariant::MaskedDelivery, buf);
            return;
        }
        if (const pci::MsiCapability *mi = fn->msi()) {
            if (mi->enabled() && !mi->masked()
                && mi->message().vector() == msg.vector())
                return;
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "%s signalled MSI vector %u while %s",
                          fn->name().c_str(), msg.vector(),
                          mi->enabled() ? "masked" : "disabled");
            violate(Invariant::MaskedDelivery, buf);
            return;
        }
        return;    // function has no MSI capability we can validate
    }
}

void
InvariantChecker::checkRing(WatchedRing &w)
{
    const nic::DescRing &r = *w.ring;
    if (r.available() > r.capacity()) {
        violate(Invariant::RingAccounting,
                w.name + ": available " + std::to_string(r.available())
                    + " exceeds capacity " + std::to_string(r.capacity()));
    }
    std::uint64_t accounted = r.consumed() + r.discarded() + r.available();
    if (r.posted() != accounted) {
        violate(Invariant::RingAccounting,
                w.name + ": posted " + std::to_string(r.posted())
                    + " != consumed " + std::to_string(r.consumed())
                    + " + discarded " + std::to_string(r.discarded())
                    + " + available " + std::to_string(r.available()));
    }
    if (w.must_not_drop && r.overflows() > w.seen_overflows) {
        violate(Invariant::RingOverflow,
                w.name + ": "
                    + std::to_string(r.overflows() - w.seen_overflows)
                    + " frame(s) dropped for lack of descriptors");
        w.seen_overflows = r.overflows();
    }
}

void
InvariantChecker::checkWire(const WatchedWire &w, bool quiesced)
{
    const nic::Wire &wire = *w.wire;
    if (wire.delivered() + wire.dropped() > wire.offered()) {
        violate(Invariant::PacketConservation,
                w.name + ": delivered " + std::to_string(wire.delivered())
                    + " + dropped " + std::to_string(wire.dropped())
                    + " exceeds offered " + std::to_string(wire.offered()));
    }
    if (quiesced && wire.inFlight() != 0) {
        violate(Invariant::PacketConservation,
                w.name + ": " + std::to_string(wire.inFlight())
                    + " frame(s) still in flight at quiescence");
    }
}

void
InvariantChecker::checkSwitch(const WatchedSwitch &w)
{
    const nic::L2Switch &sw = *w.sw;
    if (sw.lookups() != sw.matched() + sw.unmatched()) {
        violate(Invariant::SwitchAccounting,
                w.name + ": lookups " + std::to_string(sw.lookups())
                    + " != matched " + std::to_string(sw.matched())
                    + " + unmatched " + std::to_string(sw.unmatched()));
    }
}

void
InvariantChecker::checkLapic(WatchedLapic &w)
{
    if (w.lapic->spuriousEois() > w.seen_spurious) {
        violate(Invariant::SpuriousEoi,
                w.name + ": "
                    + std::to_string(w.lapic->spuriousEois()
                                     - w.seen_spurious)
                    + " EOI write(s) with no vector in service");
        w.seen_spurious = w.lapic->spuriousEois();
    }
}

void
InvariantChecker::checkNow()
{
    for (auto &w : rings_)
        checkRing(w);
    for (const auto &w : wires_)
        checkWire(w, false);
    for (const auto &w : switches_)
        checkSwitch(w);
    for (auto &w : lapics_)
        checkLapic(w);
}

void
InvariantChecker::expectQuiesced()
{
    checkNow();
    if (!eq_.empty()) {
        violate(Invariant::EventLeak,
                std::to_string(eq_.liveEvents())
                    + " live event(s) left in the queue at experiment end");
    }
    for (const auto &w : wires_)
        checkWire(w, true);
}

std::size_t
InvariantChecker::count(Invariant inv) const
{
    std::size_t n = 0;
    for (const auto &v : violations_) {
        if (v.inv == inv)
            ++n;
    }
    return n;
}

std::string
InvariantChecker::report() const
{
    std::string out;
    if (violations_.empty()) {
        out = "invariant checker: all invariants hold\n";
        return out;
    }
    out = "invariant checker: " + std::to_string(violations_.size())
        + " violation(s)\n";
    for (const auto &v : violations_)
        out += "  " + v.toString() + "\n";
    const sim::Tracer &t = sim::Tracer::global();
    if (t.size() > 0) {
        out += "--- trace ring (" + std::to_string(t.size())
            + " records) ---\n";
        out += t.toString();
    }
    if (pathtrace_)
        out += obs::pathSnapshotDump(pathtrace_->snapshot());
    return out;
}

} // namespace sriov::check

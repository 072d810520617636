// View change: the NewView derivation the leader builds from and every
// follower recomputes, exhaustively over small groups, and a follower
// that refuses a NewView its proofs do not derive.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "apps/echo_service.hpp"
#include "hybster/keys.hpp"
#include "hybster/messages.hpp"
#include "hybster/replica.hpp"
#include "net/envelope.hpp"

namespace troxy::hybster {
namespace {

// ----------------------------------------------------------- derivation

/// A prepare at `seq` from `view` whose one member names (seq, view), so
/// every reported batch is distinct.
Prepare reported(SequenceNumber seq, ViewNumber view) {
    Prepare p;
    p.view = view;
    p.seq = seq;
    Request member;
    member.id = {500, seq * 16 + view};
    member.assign(apps::EchoService::make_write(seq, 16));
    p.batch.requests.push_back(std::move(member));
    return p;
}

ViewChange view_change(std::uint32_t replica, SequenceNumber last_stable,
                       std::vector<Prepare> prepared, ViewNumber view = 4) {
    ViewChange vc;
    vc.new_view = view;
    vc.replica = replica;
    vc.last_stable = last_stable;
    vc.prepared = std::move(prepared);
    return vc;
}

std::vector<const ViewChange*> pointers(const std::vector<ViewChange>& vcs) {
    std::vector<const ViewChange*> out;
    for (const ViewChange& vc : vcs) out.push_back(&vc);
    return out;
}

TEST(ViewDerivation, HighestViewWinsAndTiesGoToTheLowestReplica) {
    const std::vector<ViewChange> vcs = {
        view_change(2, 0, {reported(1, 1), reported(2, 2)}),
        view_change(0, 0, {reported(1, 2), reported(2, 2)}),
        view_change(1, 0, {reported(1, 0)}),
    };
    const auto derived = derive_new_view(2, 4, pointers(vcs));
    ASSERT_TRUE(derived.has_value());
    EXPECT_EQ(derived->start_seq, 1u);
    ASSERT_EQ(derived->slots.size(), 2u);
    EXPECT_EQ(derived->slots[0], &vcs[1].prepared[0]);  // view 2 beats 1, 0
    EXPECT_EQ(derived->slots[1], &vcs[1].prepared[1]);  // replica 0 beats 2
}

TEST(ViewDerivation, StartsAboveTheHighestCheckpointAndFillsGapsWithNoops) {
    const std::vector<ViewChange> vcs = {
        view_change(0, 4, {reported(7, 1)}),
        view_change(1, 2, {reported(3, 1), reported(5, 0)}),
    };
    const auto derived = derive_new_view(2, 4, pointers(vcs));
    ASSERT_TRUE(derived.has_value());
    EXPECT_EQ(derived->start_seq, 5u);
    ASSERT_EQ(derived->slots.size(), 3u);  // 5, 6, 7; nothing below 5
    EXPECT_EQ(derived->slots[0], &vcs[1].prepared[1]);
    EXPECT_EQ(derived->slots[1], nullptr);  // no proof reports 6
    EXPECT_EQ(derived->slots[2], &vcs[0].prepared[0]);
}

TEST(ViewDerivation, RefusesTooFewForeignRepeatedOrOversizedProofs) {
    const std::vector<ViewChange> vcs = {
        view_change(0, 0, {reported(1, 0)}),
        view_change(1, 0, {}),
        view_change(1, 0, {reported(1, 1)}),
        view_change(2, 0, {}, /*view=*/3),
    };
    const auto with = [&](std::initializer_list<int> picks) {
        std::vector<const ViewChange*> proofs;
        for (const int i : picks) proofs.push_back(&vcs[static_cast<std::size_t>(i)]);
        return derive_new_view(2, 4, proofs);
    };
    EXPECT_TRUE(with({0, 1}).has_value());
    EXPECT_FALSE(with({0}).has_value());        // below the quorum
    EXPECT_FALSE(with({0, 1, 2}).has_value());  // replica 1 twice
    EXPECT_FALSE(with({0, 1, 3}).has_value());  // a proof for view 3

    // A NewView carries at most kMaxPrepared reproposals.
    const ViewChange far = view_change(
        2, 0, {reported(ViewChange::kMaxPrepared + 1, 0)});
    const std::vector<const ViewChange*> proofs = {&vcs[0], &far};
    EXPECT_FALSE(derive_new_view(2, 4, proofs).has_value());
}

/// One replica's ViewChange shape: its stable checkpoint and, for each of
/// slots 1–4, the view of the prepare it reports there (-1: none).
struct Pattern {
    SequenceNumber last_stable;
    std::array<int, 4> views;
};

/// The bounded pattern set: every checkpoint (none, or a stale one at 2)
/// crossed with prepares drawn from views 0–2, picked by a fixed LCG so the
/// set stays small, plus the empty report and one report of every slot.
std::vector<Pattern> patterns(std::size_t count) {
    std::vector<Pattern> out = {{0, {-1, -1, -1, -1}}, {0, {0, 1, 2, 1}}};
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    while (out.size() < count) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        Pattern p{(x >> 60) & 1 ? 2u : 0u, {}};
        for (std::size_t s = 0; s < 4; ++s) {
            p.views[s] = static_cast<int>((x >> (8 * s + 8)) % 4) - 1;
        }
        out.push_back(p);
    }
    return out;
}

/// Checks derive_new_view against a direct reading of the rules.
void check_derivation(int quorum, const std::vector<ViewChange>& vcs,
                      std::uint32_t members) {
    std::vector<const ViewChange*> proofs;
    for (std::uint32_t r = 0; r < vcs.size(); ++r) {
        if (members & (1u << r)) proofs.push_back(&vcs[r]);
    }
    const auto derived = derive_new_view(quorum, 4, proofs);
    if (static_cast<int>(proofs.size()) < quorum) {
        EXPECT_FALSE(derived.has_value());
        return;
    }
    ASSERT_TRUE(derived.has_value());
    SequenceNumber stable = 0;
    SequenceNumber top = 0;
    for (const ViewChange* vc : proofs) {
        stable = std::max(stable, vc->last_stable);
        for (const Prepare& p : vc->prepared) top = std::max(top, p.seq);
    }
    ASSERT_EQ(derived->start_seq, stable + 1);
    ASSERT_EQ(derived->slots.size(), top > stable ? top - stable : 0u);
    for (std::size_t i = 0; i < derived->slots.size(); ++i) {
        const SequenceNumber seq = stable + 1 + i;
        const Prepare* best = nullptr;  // proofs are in replica-id order
        for (const ViewChange* vc : proofs) {
            for (const Prepare& p : vc->prepared) {
                if (p.seq == seq && (best == nullptr || p.view > best->view)) {
                    best = &p;
                }
            }
        }
        ASSERT_EQ(derived->slots[i], best) << "slot " << seq;
    }
    // Any order of the proofs derives the same view.
    std::vector<const ViewChange*> order = proofs;
    while (std::next_permutation(order.begin(), order.end())) {
        const auto again = derive_new_view(quorum, 4, order);
        ASSERT_TRUE(again.has_value());
        ASSERT_EQ(again->start_seq, derived->start_seq);
        ASSERT_EQ(again->slots, derived->slots);
    }
}

void check_every_subset(int n, std::size_t pattern_count) {
    const int quorum = n == 3 ? 2 : 3;
    const std::vector<Pattern> shapes = patterns(pattern_count);
    std::vector<std::size_t> pick(static_cast<std::size_t>(n), 0);
    for (;;) {
        std::vector<ViewChange> vcs;
        for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(n); ++r) {
            const Pattern& shape = shapes[pick[r]];
            std::vector<Prepare> prepared;
            for (std::size_t s = 0; s < 4; ++s) {
                if (shape.views[s] < 0) continue;
                prepared.push_back(reported(s + 1, static_cast<ViewNumber>(
                                                       shape.views[s])));
            }
            vcs.push_back(view_change(r, shape.last_stable, prepared));
        }
        for (std::uint32_t members = 0; members < (1u << n); ++members) {
            check_derivation(quorum, vcs, members);
            if (testing::Test::HasFatalFailure()) return;
        }
        std::size_t r = 0;
        while (r < pick.size() && ++pick[r] == shapes.size()) pick[r++] = 0;
        if (r == pick.size()) return;
    }
}

TEST(ViewDerivation, EveryProofSubsetOfThreeReplicas) {
    check_every_subset(3, 12);
}

TEST(ViewDerivation, EveryProofSubsetOfFourReplicas) {
    check_every_subset(4, 6);
}

// ------------------------------------------------------- NewView check

/// Replica 2 of a group on its own. The test plays every other replica,
/// among them replica 1, the Byzantine leader of view 1, which certifies
/// whatever NewView it likes with its own certifier.
struct LoneFollower {
    static constexpr std::uint32_t kSelf = 2;
    static constexpr std::uint32_t kLeader = 1;

    sim::Simulator sim{9};
    sim::Network network{sim};
    net::Fabric fabric{sim, network};
    sim::CostProfile profile = sim::CostProfile::java();
    Config config;
    bool pbft;
    std::vector<Certifier> peers;  // index = replica id
    std::unique_ptr<sim::Node> node;
    std::unique_ptr<Replica> follower;
    std::optional<ViewChange> sent_view_change;  // as replica 1 got it
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto{profile, meter};

    explicit LoneFollower(bool pbft_profile) : pbft(pbft_profile) {
        config.f = 1;
        const std::uint32_t n = pbft ? 4 : 3;
        for (std::uint32_t i = 0; i < n; ++i) config.replicas.push_back(i + 1);
        config.view_change_timeout = sim::seconds(60);
        const Bytes master = to_bytes("lone-follower");
        for (std::uint32_t i = 0; i < n; ++i) {
            if (pbft) {
                std::vector<Bytes> links;
                for (std::uint32_t r = 0; r < n; ++r) {
                    links.push_back(replica_link_key(master, i, r));
                }
                peers.emplace_back(i, std::move(links));
            } else {
                peers.emplace_back(std::make_shared<enclave::TrinX>(i, master));
            }
        }
        node = std::make_unique<sim::Node>(sim, config.node_of(kSelf), "r2", 4);
        Replica::Hooks hooks;
        hooks.verify_request = [](enclave::CostedCrypto&, const Request&) {
            return true;
        };
        hooks.deliver_replies = [](enclave::CostedCrypto&, net::Outbox&,
                                   std::span<ExecutedReply>) {};
        // The follower certifies with its own instance; the test never
        // certifies as replica 2.
        Certifier own = pbft ? peers[kSelf]
                             : Certifier(std::make_shared<enclave::TrinX>(
                                   kSelf, master));
        follower = std::make_unique<Replica>(
            fabric, *node, config, kSelf,
            std::make_unique<apps::EchoService>(), std::move(own), profile,
            std::move(hooks));
        for (std::uint32_t r = 0; r < n; ++r) {
            if (r == kSelf) continue;
            fabric.attach(config.node_of(r), [this, r](sim::NodeId, Bytes m) {
                if (r != kLeader) return;
                auto unwrapped = net::unwrap_view(m);
                if (!unwrapped) return;
                auto decoded = decode_message(unwrapped->second,
                                              peers[kSelf].width());
                if (decoded && std::holds_alternative<ViewChange>(*decoded)) {
                    sent_view_change = std::get<ViewChange>(*decoded);
                }
            });
        }
    }

    void deliver(std::uint32_t from, Message message) {
        follower->on_message(config.node_of(from), std::move(message));
        sim.run_until(sim.now() + sim::milliseconds(10));
    }

    /// `replica`'s certified ViewChange for view 1.
    ViewChange view_change(std::uint32_t replica, std::vector<Prepare> prepared) {
        ViewChange vc;
        vc.new_view = 1;
        vc.replica = replica;
        vc.prepared = std::move(prepared);
        vc.cert = peers[replica].certify(crypto, vc.certified_view());
        return vc;
    }

    /// The view-1 leader's NewView: `batches` reproposed from `start_seq`
    /// on, each certified as the leader's continuing prepare counter
    /// requires, then the whole message certified.
    NewView new_view(SequenceNumber start_seq, std::vector<ViewChange> proofs,
                     const std::vector<Batch>& batches) {
        NewView nv;
        nv.view = 1;
        nv.replica = kLeader;
        nv.start_seq = start_seq;
        nv.proofs = std::move(proofs);
        for (std::size_t i = 0; i < batches.size(); ++i) {
            Prepare fresh;
            fresh.view = 1;
            fresh.seq = start_seq + i;
            fresh.replica = kLeader;
            fresh.batch = batches[i];
            const auto certified = peers[kLeader].certify_ordered(
                crypto, /*prepare counter of view 1=*/2,
                fresh.certified_view());
            fresh.counter_value = certified.value;
            fresh.cert = certified.auth;
            nv.reproposed.push_back(std::move(fresh));
        }
        nv.cert = peers[kLeader].certify(crypto, nv.certified_view());
        return nv;
    }
};

Batch write_batch(std::uint64_t number) {
    Batch batch;
    Request request;
    request.id = {500, number};
    request.assign(apps::EchoService::make_write(number, 32));
    batch.requests.push_back(std::move(request));
    return batch;
}

/// A view-0 prepare of `batch` at `seq`, as a ViewChange reports it.
Prepare view0_prepare(SequenceNumber seq, const Batch& batch) {
    Prepare p;
    p.seq = seq;
    p.batch = batch;
    return p;
}

/// Delivers a NewView for view 1 whose proofs report writes 1 and 2 at
/// sequence numbers 1 and 2, reproposing `batches` from `start_seq`, and
/// returns the follower's view afterwards.
ViewNumber view_after(bool pbft, SequenceNumber start_seq,
                      const std::vector<Batch>& batches) {
    LoneFollower lone(pbft);
    const Batch a = write_batch(1);
    const Batch b = write_batch(2);
    std::vector<ViewChange> proofs = {
        lone.view_change(0, {view0_prepare(1, a), view0_prepare(2, b)}),
        lone.view_change(1, {view0_prepare(1, a)}),
    };
    if (pbft) proofs.push_back(lone.view_change(3, {}));
    lone.deliver(LoneFollower::kLeader,
                 lone.new_view(start_seq, std::move(proofs), batches));
    return lone.follower->view();
}

class NewViewCheck : public ::testing::TestWithParam<bool> {};

TEST_P(NewViewCheck, InstallsTheDerivedView) {
    EXPECT_EQ(view_after(GetParam(), 1, {write_batch(1), write_batch(2)}), 1u);
}

TEST_P(NewViewCheck, RefusesASwappedReproposal) {
    EXPECT_EQ(view_after(GetParam(), 1, {write_batch(1), write_batch(3)}), 0u);
}

TEST_P(NewViewCheck, RefusesADroppedReproposal) {
    EXPECT_EQ(view_after(GetParam(), 1, {write_batch(1)}), 0u);
}

TEST_P(NewViewCheck, RefusesAMovedStart) {
    EXPECT_EQ(view_after(GetParam(), 2, {write_batch(2)}), 0u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, NewViewCheck, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "Pbft" : "Hybrid";
                         });

/// PBFT: the follower prepares write 1 at sequence number 1 in view 0 and
/// joins view 1 with a ViewChange that reports it. The view-1 leader's
/// NewView carries the follower's own ViewChange — as sent, or altered so
/// the prepare is gone and need not be reproposed.
ViewNumber view_after_own_copy(bool altered) {
    LoneFollower lone(/*pbft=*/true);
    const Batch a = write_batch(1);
    Prepare prepare = view0_prepare(1, a);
    prepare.cert = lone.peers[0]
                       .certify_ordered(lone.crypto, 0, prepare.certified_view())
                       .auth;
    lone.deliver(0, prepare);
    Commit commit;
    commit.seq = 1;
    commit.replica = 3;
    commit.counter_value = 1;  // the prepare round
    commit.batch_size = 1;
    commit.batch_digest = a.digest();
    commit.cert = lone.peers[3]
                      .certify_ordered(lone.crypto, 1, commit.certified_view(),
                                       commit.counter_value)
                      .auth;
    lone.deliver(3, commit);
    lone.deliver(0, lone.view_change(0, {}));
    EXPECT_TRUE(lone.sent_view_change.has_value());
    if (!lone.sent_view_change) return 0;
    ViewChange own = *lone.sent_view_change;
    EXPECT_EQ(own.prepared.size(), 1u);
    if (altered) own.prepared.clear();
    std::vector<Batch> reproposed;
    if (!altered) reproposed.push_back(a);
    lone.deliver(LoneFollower::kLeader,
                 lone.new_view(1,
                               {lone.view_change(0, {}),
                                lone.view_change(1, {}), std::move(own)},
                               reproposed));
    return lone.follower->view();
}

TEST(OwnViewChange, PbftInstallsWithItsOwnViewChangeAsSent) {
    EXPECT_EQ(view_after_own_copy(/*altered=*/false), 1u);
}

TEST(OwnViewChange, PbftRefusesAnAlteredCopyOfItsOwnViewChange) {
    EXPECT_EQ(view_after_own_copy(/*altered=*/true), 0u);
}

}  // namespace
}  // namespace troxy::hybster

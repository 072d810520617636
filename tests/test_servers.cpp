// Server-side hosts that are otherwise only exercised indirectly: the
// standalone ("Jetty") server and the Prophecy middlebox front end.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "apps/kv_service.hpp"
#include "bench_support/cluster.hpp"
#include "http/http.hpp"
#include "http/page_service.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"

namespace troxy {
namespace {

using apps::EchoService;
using apps::KvService;

TEST(StandaloneServer, ServesManySequentialRequests) {
    bench::StandaloneCluster::Params params;
    params.base.seed = 601;
    params.service = []() { return std::make_unique<KvService>(); };
    bench::StandaloneCluster cluster(params);
    auto& client = cluster.add_client();

    int done = 0;
    std::function<void(int)> loop;
    loop = [&](int i) {
        if (i == 20) return;
        const std::string key = "k" + std::to_string(i);
        client.send(KvService::make_put(key, std::to_string(i)),
                    [&, i](Bytes) {
                        ++done;
                        loop(i + 1);
                    });
    };
    client.start([&]() { loop(0); });
    cluster.simulator().run_until(sim::seconds(5));
    EXPECT_EQ(done, 20);
    // State landed in the single service instance.
    auto& store = static_cast<KvService&>(cluster.server().service());
    EXPECT_EQ(store.size(), 20u);
}

TEST(StandaloneServer, MultipleClientsShareOneServer) {
    bench::StandaloneCluster::Params params;
    params.base.seed = 602;
    params.service = []() { return std::make_unique<EchoService>(); };
    bench::StandaloneCluster cluster(params);

    int done = 0;
    std::vector<troxy_core::LegacyClient*> clients;
    for (int i = 0; i < 5; ++i) clients.push_back(&cluster.add_client());
    for (auto* client : clients) {
        client->start([&, client]() {
            client->send(EchoService::make_write(1, 64),
                         [&](Bytes) { ++done; });
        });
    }
    cluster.simulator().run_until(sim::seconds(5));
    EXPECT_EQ(done, 5);
}

TEST(StandaloneServer, ReconnectAfterGarbageRecord) {
    // A tampered record kills nothing server-side; the client's channel
    // is per-connection state, so other clients are unaffected.
    bench::StandaloneCluster::Params params;
    params.base.seed = 603;
    params.service = []() { return std::make_unique<EchoService>(); };
    bench::StandaloneCluster cluster(params);
    auto& client = cluster.add_client();

    bool done = false;
    client.start([&]() {
        // Raw garbage straight onto the wire first.
        cluster.fabric().send(
            1000, 1,
            net::client_frame(net::ClientFrame::Record, to_bytes("garbage"),
                              cluster.network().pool()));
        client.send(EchoService::make_write(1, 64),
                    [&](Bytes) { done = true; });
    });
    cluster.simulator().run_until(sim::seconds(5));
    EXPECT_TRUE(done);
}

TEST(Prophecy, SketchCapacityEvictionStaysCorrect) {
    bench::ProphecyCluster::Params params;
    params.base.seed = 604;
    params.service = []() { return std::make_unique<http::PageService>(16); };
    params.classifier = http::PageService::classifier();
    params.middlebox.sketch_capacity = 4;  // far below the page count
    bench::ProphecyCluster cluster(params);
    auto& client = cluster.add_client();

    int correct = 0;
    std::function<void(int)> loop;
    loop = [&](int step) {
        if (step == 32) return;
        const int page = step % 16;
        client.send(http::PageService::make_get(page),
                    [&, page, step](Bytes response) {
                        auto parsed = http::parse_response(response);
                        if (parsed && to_string(parsed->body) ==
                                          http::PageService::initial_content(
                                              page)) {
                            ++correct;
                        }
                        loop(step + 1);
                    });
    };
    client.start([&]() { loop(0); });
    cluster.simulator().run_until(sim::seconds(30));
    EXPECT_EQ(correct, 32);
    // Eviction forced plenty of sketch misses.
    EXPECT_GE(cluster.middlebox().stats().sketch_misses, 16u);
}

TEST(Prophecy, MixedWorkloadKeepsPbftConsistent) {
    bench::ProphecyCluster::Params params;
    params.base.seed = 605;
    params.service = []() { return std::make_unique<http::PageService>(8); };
    params.classifier = http::PageService::classifier();
    bench::ProphecyCluster cluster(params);
    auto& client = cluster.add_client();

    int done = 0;
    std::function<void(int)> loop;
    loop = [&](int step) {
        if (step == 24) return;
        const int page = step % 8;
        const Bytes request =
            step % 3 == 0
                ? http::PageService::make_post(
                      page, to_bytes("rev" + std::to_string(step)))
                : http::PageService::make_get(page);
        client.send(request, [&, step](Bytes) {
            ++done;
            loop(step + 1);
        });
    };
    client.start([&]() { loop(0); });
    cluster.simulator().run_until(sim::seconds(30));
    ASSERT_EQ(done, 24);

    // All four PBFT replicas hold identical page stores.
    const Bytes reference = cluster.replica(0).service().checkpoint();
    for (int r = 1; r < 4; ++r) {
        EXPECT_EQ(cluster.replica(r).service().checkpoint(), reference)
            << "replica " << r;
    }
}

}  // namespace
}  // namespace troxy

// Regression tests for two shutdown races fixed alongside the thread-safety
// annotation sweep:
//
//  * stop() used to set stopping_ and notify_all WITHOUT holding jobs_mu_.
//    A worker could evaluate the wait predicate (false), get descheduled,
//    miss the notify, and block forever — stop() then hung in join().
//  * run() used to destroy sessions_ on its way out, while workers that had
//    not yet observed stopping_ still held raw Session* via their Job —
//    a use-after-free the sanitizer job catches when timing cooperates.
//
// Neither race fires deterministically; these tests grind the window with
// repeated start/stop cycles (idle and mid-flight) so a reintroduction shows
// up as a hang (caught by the async deadline) or an ASan report.
#include <gtest/gtest.h>

#include <ctime>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "support/metric_delta.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

/// stop() must finish promptly; a lost wakeup turns it into a forever-join.
void stop_with_deadline(MiniProxy& proxy) {
    auto done = std::async(std::launch::async, [&proxy] { proxy.stop(); });
    ASSERT_EQ(done.wait_for(10s), std::future_status::ready)
        << "MiniProxy::stop() hung: a worker missed the shutdown wakeup";
    done.get();
}

TEST(ProxyShutdown, RepeatedIdleStartStopNeverHangs) {
    // Idle workers sit in the condition-variable wait, which is exactly
    // where the lost-wakeup window lives. Many short cycles maximize the
    // chance of stopping while a worker is between predicate and wait.
    OriginServer origin(OriginServer::Config{.port = 0});
    for (int round = 0; round < 40; ++round) {
        MiniProxyConfig cfg;
        cfg.id = 1;
        cfg.origin = origin.endpoint();
        cfg.workers = 4;
        MiniProxy proxy(cfg);
        proxy.start();
        if (round % 2 == 0) std::this_thread::sleep_for(1ms);
        stop_with_deadline(proxy);
    }
    origin.stop();
}

TEST(ProxyShutdown, StopWithRequestsInFlightKeepsSessionsAliveForWorkers) {
    // Workers hold raw Session* while talking to a deliberately slow
    // origin; stop() must not tear the session table down until every
    // worker has joined. Clients may see their connection drop — that is
    // fine — but the proxy must neither crash nor trip ASan.
    OriginServer origin(OriginServer::Config{.port = 0, .reply_delay = 30ms});
    for (int round = 0; round < 8; ++round) {
        MiniProxyConfig cfg;
        cfg.id = 1;
        cfg.origin = origin.endpoint();
        cfg.workers = 4;
        MiniProxy proxy(cfg);
        proxy.start();

        std::vector<std::thread> clients;
        for (int c = 0; c < 6; ++c) {
            clients.emplace_back([&proxy, c, round] {
                try {
                    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
                    const std::string url = "http://host/inflight-" +
                                            std::to_string(round) + "-" +
                                            std::to_string(c);
                    conn.write_all(format_request({false, url, 0, 256}));
                    (void)conn.read_line();  // may fail: shutdown races the reply
                } catch (const std::exception&) {
                    // Connection reset mid-shutdown is expected, not a failure.
                }
            });
        }
        // Let the requests reach the workers, then yank the proxy down
        // while they are mid-origin-fetch and still holding Session*.
        std::this_thread::sleep_for(10ms);
        stop_with_deadline(proxy);
        for (std::thread& t : clients) t.join();
    }
    origin.stop();
}

TEST(ProxyShutdown, IdleLoopDoesNotBusyWake) {
    // The event loop has no fixed tick: with no sessions, no timers due,
    // and a long keepalive interval, it must SLEEP in the backend wait —
    // not spin. Both the wakeup counter and process CPU time bound it.
    OriginServer origin(OriginServer::Config{.port = 0});
    MiniProxyConfig cfg;
    cfg.id = 1;
    cfg.origin = origin.endpoint();
    cfg.workers = 1;
    cfg.keepalive_interval = 60s;   // no liveness tick inside the window
    cfg.idle_timeout = 0ms;         // no idle-sweep timer either
    MiniProxy proxy(cfg);
    // The loop records one wait-histogram sample per wakeup, and this is
    // the only proxy (hence the only event backend) running.
    const obs::Labels backend{
        {"backend", net::event_backend_kind_name(proxy.event_backend_kind())}};
    proxy.start();
    std::this_thread::sleep_for(50ms);  // let startup wakeups settle

    const test::MetricDelta counts;
    timespec cpu_before{};
    ASSERT_EQ(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu_before), 0);
    std::this_thread::sleep_for(500ms);
    timespec cpu_after{};
    ASSERT_EQ(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu_after), 0);
    const std::uint64_t wakeups = counts("sc_event_backend_wait_seconds", backend);

    // A 50ms tick would show ~10 wakeups here; a spin, thousands. Allow a
    // generous margin for stray signals and scheduler noise.
    EXPECT_LE(wakeups, 5u) << "the idle event loop is ticking";
    const double cpu_s =
        static_cast<double>(cpu_after.tv_sec - cpu_before.tv_sec) +
        static_cast<double>(cpu_after.tv_nsec - cpu_before.tv_nsec) * 1e-9;
    // Whole-process CPU over a 500ms idle window (the origin's accept
    // thread polls at 50ms, workers sit in cv waits): a spinning loop
    // burns ~0.5s here, two orders of magnitude above this bound.
    EXPECT_LT(cpu_s, 0.25) << "idle proxy burned " << cpu_s << "s of CPU";

    stop_with_deadline(proxy);
    origin.stop();
}

}  // namespace
}  // namespace sc

// "Squidlet" — the prototype proxy of Section VI-B, scaled to its essence:
// an HTTP-lite front end, an LRU document cache, ICPv2 over UDP toward
// siblings, and a SummaryCacheNode driving SC-ICP directory updates.
//
// Four sharing modes: the paper's three experimental columns plus the
// Squid variant it cites:
//   * none        — no cooperation (the no-ICP baseline),
//   * icp         — multicast an ICP query to every sibling on every miss,
//   * summary     — probe replicated summaries first, query only promising
//                   siblings (the SC-ICP protocol, pushed delta updates),
//   * digest_pull — the Squid Cache Digest variant: pull each sibling's
//                   full digest instead, as a periodic DIRREQ answered by
//                   the same chunked DIRFULL that repairs a push stream.
//
// Threading model (docs/PROTOCOL.md "Threading model"): one event-loop
// thread owns the listener, the UDP socket, and every idle client
// connection, multiplexed through an sc::net::EventBackend (epoll by
// default on Linux, poll(2) otherwise; `event_backend`/SC_EVENT_BACKEND
// selects). The loop registers each fd once and waits with a deadline
// computed from the next pending timer (keepalive pacing, resync repair,
// idle-session sweep) — there is no fixed tick; cross-thread nudges
// arrive via the wake pipe. It only accepts, handles readiness, and
// reads *available* bytes into per-connection buffers — it never blocks
// on a partial line and never runs a fetch. Connections are HTTP/1.1
// persistent: an incremental per-session parser (HttpSessionParser)
// turns buffered lines into requests — pipelined lite lines or real
// HTTP/1.x with Connection negotiation — which are dispatched to an
// N-thread worker pool (`MiniProxyConfig::workers`) that runs the full
// local-hit / summary-probe / sibling-query / origin-fetch pipeline; a
// connection is owned by exactly one worker while its request is in
// flight (and deregistered from the backend), so responses on one
// connection stay ordered. ICP replies are routed to the waiting worker
// by request number through a ReplyDemux; all other datagrams (queries,
// updates, liveness) are serviced inline by the event loop, so two
// proxies can never deadlock on each other's control traffic even at
// workers=1. Responses are written non-blocking: bytes a slow reader
// cannot take yet are buffered per connection and drained by the event
// loop on POLLOUT (capped by write_buffer_limit). Idle sessions past
// `idle_timeout` are closed quietly; `max_requests_per_connection`
// rotates long-lived connections.
//
// The decision pipeline itself — probe order, sequential SC-ICP query
// rounds, admission, update batching — lives in core::ProtocolEngine,
// the same object the trace simulators drive.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/lru_cache.hpp"
#include "core/protocol_engine.hpp"
#include "core/summary_cache_node.hpp"
#include "icp/reply_demux.hpp"
#include "icp/udp_socket.hpp"
#include "net/event_backend.hpp"
#include "obs/metrics.hpp"
#include "proto/http_lite.hpp"
#include "proto/http_session.hpp"
#include "proto/tcp.hpp"
#include "store/tiered_store.hpp"
#include "util/thread_annotations.hpp"

namespace sc {

enum class ShareMode {
    none,         ///< no cooperation
    icp,          ///< multicast query on every miss
    summary,      ///< SC-ICP: pushed delta updates, probe before querying
    digest_pull,  ///< Squid Cache Digest variant: DIRREQ every live sibling
                  ///< each keepalive tick for its full bitmap; no pushed updates
};

[[nodiscard]] const char* share_mode_name(ShareMode m);

/// A client that streams more than this many bytes without completing a
/// request line is dropped (slow-loris / garbage-stream protection).
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

struct MiniProxyConfig {
    NodeId id = 0;
    std::uint16_t http_port = 0;  ///< 0 = ephemeral
    std::uint16_t icp_port = 0;
    /// Local address to bind (host byte order); default loopback, 0 = any
    /// interface — the wide-area deployment case.
    std::uint32_t bind_host = 0x7f000001u;
    Endpoint origin;
    std::uint64_t cache_bytes = 8ull * 1024 * 1024;
    std::uint64_t max_object_bytes = kDefaultMaxObjectBytes;
    ShareMode mode = ShareMode::none;
    double update_threshold = 0.01;
    BloomSummaryConfig bloom;
    std::chrono::milliseconds query_timeout{100};   ///< ICP reply wait
    std::chrono::milliseconds fetch_timeout{2000};  ///< sibling SGET wait

    /// Request-pipeline worker threads. 1 reproduces the serial behavior
    /// (requests complete in arrival order); more lets slow sibling or
    /// origin fetches overlap instead of head-of-line blocking everyone.
    int workers = 1;

    /// LruCache shards (power of two). 0 = auto: min(workers, 8), rounded
    /// down to a power of two. 1 reproduces the single-list LRU exactly
    /// (global eviction order); more shards trade global LRU order for
    /// per-shard locks that scale with the worker pool.
    std::size_t cache_shards = 0;

    /// Liveness (Section VI-B): SECHO probes every interval; a sibling
    /// that stays silent for liveness_strikes intervals is declared dead
    /// (its summary replica is dropped); the first datagram heard from it
    /// again marks it recovered, and the repair sweep pulls its summary
    /// afresh with a DIRREQ.
    std::chrono::milliseconds keepalive_interval{500};
    int liveness_strikes = 3;

    /// Serve ICP_OP_HIT_OBJ (object inline in the reply) for cached
    /// documents up to this size; 0 disables the optimization.
    std::uint64_t hit_obj_max_bytes = 0;

    /// Summary-mode resilience: minimum spacing between DIRREQ resync
    /// requests sent to one peer, and between full-bitmap answers served
    /// to one peer (a lost answer is re-requested at this cadence; the cap
    /// keeps a flapping peer from turning resync into a bitmap flood).
    /// digest_pull pulls on the keepalive tick, so its period is
    /// max(keepalive_interval, resync_interval).
    std::chrono::milliseconds resync_interval{250};

    /// Learn unknown peers at runtime (summary mode): a SECHO or DIRREQ
    /// from an address we don't know — carrying the peer's HTTP port in
    /// the header options — adds it as a sibling, and the repair sweep
    /// DIRREQs its summary (its own DIRREQ fetches ours). Joiners only
    /// need to know us.
    bool dynamic_membership = true;

    /// Send-side UDP fault injection (deterministic loss/duplicate/reorder
    /// for the mesh convergence tests). When unset here, the SC_UDP_FAULT_*
    /// environment variables apply, so CI can sweep loss rates without new
    /// binaries.
    UdpFaultConfig udp_faults;

    /// Per-connection cap on response bytes buffered for a reader that is
    /// slower than we produce (drained on POLLOUT by the event loop). A
    /// connection whose buffer exceeds this is dropped — a reader that
    /// never drains cannot pin unbounded memory.
    std::uint64_t write_buffer_limit = 8ull * 1024 * 1024;

    /// Squid-style access log: one line per client request
    /// ("<epoch-ms> <proxy-id> <status> <size> <latency-us> <url>").
    /// Empty disables logging.
    std::string access_log_path;

    /// Log-structured disk tier (docs/STORAGE.md). Empty disables it —
    /// the cache is the historical RAM-only LruCache. Non-empty names the
    /// segment directory: the proxy recovers any existing log on boot,
    /// re-derives its counting Bloom filter from the recovered directory,
    /// and layers the RAM LRU (cache_bytes) as L1 over the disk tier.
    std::string disk_dir;

    /// Disk-tier capacity in bytes (sum of cached document sizes). 0 with
    /// a disk_dir set defaults to 8x cache_bytes.
    std::uint64_t disk_capacity_bytes = 0;

    /// Event-loop readiness backend. Unset resolves SC_EVENT_BACKEND from
    /// the environment, then the platform default (epoll on Linux).
    std::optional<net::EventBackendKind> event_backend;

    /// Close a keep-alive session with no traffic for this long (quiet
    /// close: no response, no log line). 0 disables the sweep — an idle
    /// session then lives until the peer closes.
    std::chrono::milliseconds idle_timeout{60'000};

    /// Rotate a connection after serving this many requests (the response
    /// to the last one carries `Connection: close` / is followed by EOF).
    /// 0 = unlimited. Bounds per-connection state growth behind broken
    /// clients that never close.
    std::uint32_t max_requests_per_connection = 0;
};

class MiniProxy {
public:
    explicit MiniProxy(MiniProxyConfig config);
    ~MiniProxy();

    MiniProxy(const MiniProxy&) = delete;
    MiniProxy& operator=(const MiniProxy&) = delete;

    [[nodiscard]] Endpoint http_endpoint() const { return http_endpoint_; }
    [[nodiscard]] Endpoint icp_endpoint() const { return icp_endpoint_; }
    [[nodiscard]] NodeId id() const { return config_.id; }
    /// Resolved readiness backend (config → SC_EVENT_BACKEND → default).
    [[nodiscard]] net::EventBackendKind event_backend_kind() const { return backend_kind_; }

    /// Register a sibling. Safe before OR after start(): a runtime join
    /// swaps in a new sibling table under membership_mu_ and wakes the
    /// event loop, whose repair sweep DIRREQs the newcomer's summary (the
    /// newcomer's own DIRREQ fetches ours). Re-adding a known id updates
    /// its endpoints.
    void add_sibling(NodeId id, Endpoint icp, Endpoint http);

    /// Launch the event loop and worker pool. Idempotent.
    void start();

    /// Stop and join. Idempotent; the destructor calls it.
    void stop();

    // Counts: read the obs registry, labelled {node, mode}
    // (docs/OBSERVABILITY.md).
    [[nodiscard]] std::size_t cached_documents() const;
    [[nodiscard]] std::uint64_t cached_bytes() const;
    /// Directory entries replayed from the disk log at construction
    /// (0 when the disk tier is disabled or the directory was fresh).
    [[nodiscard]] std::size_t recovered_documents() const;
    [[nodiscard]] bool has_disk_tier() const { return cache_.has_disk_tier(); }

    /// Diagnostic probe: does our replica of sibling `id` predict `url`?
    /// Safe from any thread (the node locks its replicas); used by
    /// convergence tests to watch summaries heal without issuing requests.
    [[nodiscard]] bool sibling_replica_predicts(NodeId id, std::string_view url) const {
        return node_.sibling_may_contain(id, url);
    }
    /// Sibling replicas currently synced (bootstrapped, not quarantined).
    [[nodiscard]] std::size_t synced_replicas() const { return node_.known_siblings(); }

private:
    /// Sibling bookkeeping. `alive` is written by the event loop
    /// (liveness) and read by workers picking query targets, hence
    /// atomic; `last_heard` and the resync rate-limit clocks are
    /// event-loop-only; the endpoints and id are immutable for the
    /// lifetime of the entry (membership changes swap in a new table
    /// holding a fresh entry, never mutate these in place).
    struct Sibling {
        NodeId id;
        Endpoint icp;
        Endpoint http;
        std::atomic<bool> alive{true};
        std::chrono::steady_clock::time_point last_heard;
        /// Earliest time we may send this peer another DIRREQ
        /// (event-loop-only; see MiniProxyConfig::resync_interval).
        std::chrono::steady_clock::time_point next_resync_request{};
        /// Earliest time we may answer another of its DIRREQs with a
        /// full bitmap (event-loop-only).
        std::chrono::steady_clock::time_point next_resync_reply{};

        Sibling(NodeId id_, Endpoint icp_, Endpoint http_)
            : id(id_), icp(icp_), http(http_),
              last_heard(std::chrono::steady_clock::now()) {}
    };

    /// Immutable sibling table, copied on write: readers (workers picking
    /// targets and pushing bitmaps, the event loop) copy the pointer under
    /// membership_mu_ and iterate without a lock, holding entries across
    /// sends; membership changes swap in a new vector under that lock.
    /// Entries are shared_ptr so per-entry atomics (`alive`) and
    /// event-loop-only fields survive a swap.
    using SiblingTable = std::vector<std::shared_ptr<Sibling>>;

    /// One accepted client connection. Owned by the event loop while
    /// idle; handed to exactly one worker (busy == true) per dispatched
    /// request, during which the loop neither watches nor touches conn
    /// (the fd is deregistered from the event backend).
    ///
    /// Responses go through send_to_client: whatever the socket refuses
    /// without blocking lands in `outbox`, which the event loop drains on
    /// POLLOUT once the worker releases the session — a slow reader can
    /// no longer stall a worker mid-response. The next buffered request
    /// is not dispatched until the outbox is empty (backpressure).
    struct Session {
        TcpConnection conn;
        HttpSessionParser parser;  ///< line → request state machine
        bool busy = false;     ///< a worker owns the connection right now
        bool saw_eof = false;  ///< peer closed; drain buffered requests, then close
        std::string outbox;    ///< response bytes awaiting POLLOUT
        bool close_after_flush = false;  ///< finished; close once outbox drains
        bool overflow = false;  ///< outbox blew write_buffer_limit: drop
        bool registered = false;       ///< fd currently in the event backend
        bool registered_read = false;  ///< read interest at registration
        bool registered_write = false; ///< write interest at registration
        std::uint64_t requests_dispatched = 0;  ///< max-requests rotation
        std::chrono::steady_clock::time_point last_activity;  ///< idle sweep

        explicit Session(TcpConnection c)
            : conn(std::move(c)), last_activity(std::chrono::steady_clock::now()) {}
    };

    /// Per-worker state: each worker keeps its own persistent origin
    /// connection so fetches never contend on a shared socket.
    struct WorkerCtx {
        std::optional<TcpConnection> origin_conn;
    };

    void run();
    void worker_loop();
    /// Feed buffered lines through the session parser and dispatch the
    /// next completed request of an idle session, or decide the session
    /// is finished. Returns false when the caller should erase (close)
    /// the session.
    [[nodiscard]] bool pump_session(std::uint64_t id, Session& s);
    /// Sync the session's event-backend registration with its state:
    /// busy sessions are deregistered, idle ones watch read (+write while
    /// the outbox is non-empty).
    void update_session_interest(std::uint64_t id, Session& s);
    /// Close idle keep-alive sessions past config.idle_timeout.
    void sweep_idle_sessions(std::chrono::steady_clock::time_point now);
    void wake_loop();

    /// Serve one parsed request. Returns false when the connection should
    /// be closed after the reply.
    [[nodiscard]] bool handle_client_request(Session& s, const SessionRequest& r,
                                             WorkerCtx& ctx);
    /// Write the response in the framing the request used (lite header or
    /// HTTP/1.1 with Connection negotiation), through the outbox.
    void send_response(Session& s, const SessionRequest& r, HttpLiteStatus status,
                       std::string_view body);
    /// Write a response chunk: as much as the socket takes without
    /// blocking, the rest into the session outbox. Worker-only (the
    /// worker owns the session while busy).
    void send_to_client(Session& s, std::string_view data);
    void send_to_client(Session& s, std::span<const std::uint8_t> data);
    /// Event-loop side of the pair: drain the outbox on POLLOUT.
    void flush_outbox(Session& s);
    /// Close a session now, or once its outbox drains.
    void finish_session(std::uint64_t id);
    void drop_session(std::uint64_t id);
    /// GET /__metrics (Prometheus text) and /__trace (JSON event dump);
    /// answers both curl-style HTTP/1.x and bare HTTP-lite request lines,
    /// non-blocking through the outbox like every other response.
    void serve_admin(Session& s, const SessionRequest& r);
    void handle_datagram(const Datagram& dgram);
    void handle_datagram_body(const Datagram& dgram, const IcpHeader& header);
    void answer_query(const Datagram& dgram);

    struct QueryOutcome {
        std::vector<NodeId> hits;     ///< siblings that replied HIT
        bool inline_object = false;   ///< a fresh HIT_OBJ carried the body
    };

    /// Query the targets and collect replies within the timeout. Runs on
    /// a worker; replies arrive via the demux (the event loop receives).
    [[nodiscard]] QueryOutcome query_siblings(const HttpLiteRequest& req,
                                              const std::vector<NodeId>& targets);

    void send_keepalives_and_check_liveness();
    void note_heard_from(NodeId sender);

    // --- summary-mesh resilience (event-loop-only unless noted) --------
    /// Current sibling table (any thread). Take it before node_mu_.
    [[nodiscard]] std::shared_ptr<const SiblingTable> sibling_snapshot() const
        SC_EXCLUDES(membership_mu_) {
        const MutexLock lock(membership_mu_);
        return siblings_;
    }
    /// Entry for `id` in the current snapshot, or nullptr.
    [[nodiscard]] std::shared_ptr<Sibling> find_sibling(NodeId id) const;
    /// Send this peer a DIRREQ asking for its full bitmap, rate-limited
    /// by resync_interval: a resync in summary mode, a pull in
    /// digest_pull mode. Event loop only.
    void request_resync(Sibling& sib);
    /// Answer a peer's DIRREQ: rate-limit, then hand the full-bitmap
    /// push to a worker. Event loop only.
    void serve_resync(Sibling& sib);
    /// Dynamic membership: a SECHO or DIRREQ from an unknown peer
    /// (header carries its HTTP port) joins it to the mesh, and a DIRREQ
    /// introduction joins the third party it vouches for. On every new
    /// learn, introductions are exchanged — the mesh hears about the
    /// newcomer, the newcomer hears about the mesh — so membership
    /// propagates transitively from one point of contact. Event loop
    /// only; no-op unless config allows it.
    void maybe_learn_sibling(NodeId id, Endpoint icp, std::uint16_t http_port);
    /// Encode our full bitmap (chunked) and send it to one peer: the
    /// answer to its DIRREQ, and the only way a sibling's replica of us is
    /// built. Runs on a worker (takes node_mu_; must never run on the
    /// event loop).
    void push_full_summary_to(NodeId id);
    /// Send every live sibling a sequence heartbeat (empty delta carrying
    /// the next delta sequence) so a receiver that lost the tail of the
    /// stream detects the gap and resyncs. Worker-only (takes node_mu_);
    /// enqueued from the keepalive tick in summary mode.
    void broadcast_seq_heartbeat();
    /// Queue a closure for the worker pool (drained before request jobs).
    void enqueue_task(std::function<void()> task);

    [[nodiscard]] std::optional<std::string> fetch_from_sibling(NodeId id,
                                                                const HttpLiteRequest& req);
    [[nodiscard]] std::string fetch_from_origin(const HttpLiteRequest& req, WorkerCtx& ctx);
    void insert_document(const HttpLiteRequest& req);
    void broadcast_updates();
    void log_access(HttpLiteStatus status, const HttpLiteRequest& req,
                    std::chrono::steady_clock::time_point started);
    /// Single exit point for a client GET: bumps the hit/miss counters
    /// (before the reply, so a client that has read it sees it counted),
    /// writes the reply, then observes latency and writes the access-log
    /// line — all from the same status, so the log and /__metrics agree.
    void finish_request(Session& s, const SessionRequest& r, HttpLiteStatus status,
                        std::string_view body,
                        std::chrono::steady_clock::time_point started);

    MiniProxyConfig config_;
    TcpListener listener_;
    UdpSocket udp_;
    Endpoint http_endpoint_;
    Endpoint icp_endpoint_;
    /// Internally thread-safe two-tier store: sharded RAM LRU, optionally
    /// over the log-structured disk directory (config.disk_dir). All disk
    /// appends happen under the store's own locks on whichever WORKER
    /// thread mutates the cache; the event loop only uses the RAM-index
    /// read path (contains / entry_copy), never a disk-touching call.
    store::TieredCacheStore cache_;
    /// Orders the update stream: every delta flush, heartbeat and full
    /// bitmap takes its sequence number and is sent under one hold of
    /// node_mu_, so sequence numbers leave this proxy in order. It guards
    /// no state — node_ locks its own counting filter — and nothing under
    /// it calls into the cache. Lock order: store locks and node_mu_ both
    /// come before the node's leaf locks.
    mutable Mutex node_mu_;
    /// The cache hooks write it directly (on_cache_insert/on_cache_erase
    /// take only the node's leaf lock). Also the engine's
    /// core::PeerDirectory: the replica probe takes only the node's other
    /// leaf lock, so the request path holds none of the proxy's locks
    /// while it consults the replicas.
    SummaryCacheNode node_;
    /// The shared decision pipeline (same object the simulators drive).
    /// Its DeltaBatcher elects one flusher per threshold crossing, so
    /// concurrent workers' inserts coalesce into a single update batch.
    core::ProtocolEngine engine_;
    /// Guards the table pointer: add_sibling (any thread) and the event
    /// loop learning a peer swap it; sibling_snapshot() copies it. Leaf
    /// lock: nothing is acquired under it.
    mutable Mutex membership_mu_;
    std::shared_ptr<const SiblingTable> siblings_ SC_GUARDED_BY(membership_mu_) =
        std::make_shared<const SiblingTable>();
    ReplyDemux demux_;  ///< routes ICP replies to the querying worker
    /// Seeded per-boot so a restarted proxy's rounds never collide with
    /// replies still in flight toward its predecessor's numbers.
    std::atomic<std::uint32_t> next_query_number_;
    std::chrono::steady_clock::time_point next_keepalive_{};

    // --- event loop <-> worker pool ------------------------------------
    struct Job {
        std::uint64_t session_id;
        Session* session;  ///< stable (sessions_ stores unique_ptr)
        SessionRequest request;
    };
    struct Completion {
        std::uint64_t session_id;
        bool keep;
    };
    Mutex jobs_mu_;
    CondVar jobs_cv_;
    std::deque<Job> job_queue_ SC_GUARDED_BY(jobs_mu_);
    /// Control-plane closures (DIRREQ answers, sequence heartbeats,
    /// digest_pull delta discards).
    /// Workers drain these before request jobs so repair traffic is not
    /// head-of-line blocked behind slow fetches.
    std::deque<std::function<void()>> task_queue_ SC_GUARDED_BY(jobs_mu_);
    std::vector<Completion> completions_ SC_GUARDED_BY(jobs_mu_);
    /// Workers wake the event loop through this pipe. It owns its fds, so
    /// a constructor that throws after creating it still closes them.
    struct WakePipe {
        WakePipe();
        ~WakePipe();
        WakePipe(const WakePipe&) = delete;
        WakePipe& operator=(const WakePipe&) = delete;
        int read_fd = -1;
        int write_fd = -1;
    };
    WakePipe wake_pipe_;

    /// All sessions, keyed by a monotonically assigned id. Touched only
    /// by the event loop thread (workers reach a session exclusively
    /// through the Job's stable pointer while it is busy). The id doubles
    /// as the event-backend tag (offset by kSessionTagBase), so a stale
    /// readiness event can never be misattributed to a reused fd.
    std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
    std::uint64_t next_session_id_ = 1;

    /// Readiness backend; created by run() and destroyed when it exits,
    /// so it never outlives the loop thread (event-loop-only).
    std::unique_ptr<net::EventBackend> backend_;
    net::EventBackendKind backend_kind_;
    std::chrono::steady_clock::time_point next_idle_sweep_{};

    std::thread loop_;
    std::vector<std::thread> workers_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> started_{false};

    Mutex access_log_mu_;  ///< workers share the access log stream
    /// The pointer is set once in the constructor (pre-thread); the
    /// STREAM it points at is what workers share, hence PT_GUARDED_BY.
    std::unique_ptr<std::ofstream> access_log_ SC_PT_GUARDED_BY(access_log_mu_);

    // sc::obs instrumentation, labeled {node, mode}: the proxy's only
    // counts. The hit/miss pair is incremented by the same finish_request
    // call that writes the access log line, so `GET /__metrics` and the
    // log can never disagree. Every count is bumped before the reply or
    // datagram that could reveal it is written, so a client or peer that
    // has seen the effect also sees it counted.
    struct Instruments {
        obs::Counter requests;
        obs::Counter cache_hits;
        obs::Counter cache_misses;
        obs::Counter remote_hits;
        obs::Counter origin_fetches;
        obs::Counter false_hit_queries;
        obs::Counter icp_timeouts;
        obs::Histogram request_latency;
        obs::Gauge cached_documents;
        obs::Gauge cached_bytes;
        obs::Gauge worker_queue_depth;   ///< dispatched lines awaiting a worker
        obs::Gauge inflight_requests;    ///< requests currently inside workers
        obs::Gauge write_buffer_bytes;   ///< response bytes awaiting POLLOUT
        obs::Gauge open_sessions;        ///< accepted client connections alive
        obs::Counter keepalive_reuses;   ///< requests beyond a connection's first
        obs::Counter icp_queries_sent;
        obs::Counter icp_queries_received;
        obs::Counter icp_replies_sent;
        obs::Counter icp_replies_received;
        /// Broadcast update datagrams (one per sibling per datagram).
        /// Unicast bitmaps count in resync_fulls_sent instead.
        obs::Counter updates_sent;
        obs::Counter sibling_fetches;
        obs::Counter keepalives_sent;
        obs::Counter keepalives_received;
        obs::Counter sibling_death_events;
        obs::Counter sibling_recovery_events;
        obs::Counter hit_obj_served;     ///< HIT_OBJ replies sent
        obs::Counter hit_obj_used;       ///< remote hits satisfied inline
        obs::Counter resync_requests_sent;
        obs::Counter resync_requests_received;
        obs::Counter resync_fulls_sent;  ///< unicast full-bitmap datagrams
        obs::Counter siblings_joined;    ///< peers added while running
        obs::Counter idle_closes;
    };
    Instruments obs_;
};

}  // namespace sc

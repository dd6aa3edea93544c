#include "proto/mini_proxy.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <system_error>

#include "obs/trace_ring.hpp"
#include "summary/message_costs.hpp"
#include "util/sc_assert.hpp"

namespace sc {
namespace {

void set_receive_timeout(int fd, std::chrono::milliseconds timeout) {
    timeval tv{};
    tv.tv_sec = timeout.count() / 1000;
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

}  // namespace

const char* share_mode_name(ShareMode m) {
    switch (m) {
        case ShareMode::none: return "none";
        case ShareMode::icp: return "icp";
        case ShareMode::summary: return "summary";
        case ShareMode::digest_pull: return "digest-pull";
    }
    return "?";
}

namespace {

bool uses_summaries(ShareMode m) {
    return m == ShareMode::summary || m == ShareMode::digest_pull;
}

/// cache_shards = 0 means auto: min(workers, 8) rounded down to a power
/// of two (LruCache requires one). An explicit value is used as given.
std::size_t resolve_cache_shards(const MiniProxyConfig& config) {
    if (config.cache_shards != 0) return config.cache_shards;
    const std::size_t want =
        std::min<std::size_t>(static_cast<std::size_t>(std::max(config.workers, 1)), 8);
    return std::bit_floor(want);
}

std::unique_ptr<LruCache> make_ram_tier(const MiniProxyConfig& config) {
    return std::make_unique<LruCache>(LruCacheConfig{
        config.cache_bytes, config.max_object_bytes, resolve_cache_shards(config)});
}

/// Disk tier (nullptr when disabled). Recovery of an existing log runs
/// inside the LogStructuredStore constructor, before any proxy thread
/// exists — the directory the proxy starts serving from IS the recovered
/// one, and rebuild_from_directory below re-derives the summary from it.
std::unique_ptr<store::LogStructuredStore> make_disk_tier(const MiniProxyConfig& config) {
    if (config.disk_dir.empty()) return nullptr;
    store::LogStoreConfig lc;
    lc.dir = config.disk_dir;
    lc.capacity_bytes = config.disk_capacity_bytes != 0 ? config.disk_capacity_bytes
                                                        : config.cache_bytes * 8;
    lc.max_object_bytes = config.max_object_bytes;
    return std::make_unique<store::LogStructuredStore>(std::move(lc));
}

/// Event-backend tags: three static fds, then sessions keyed by their
/// monotonically assigned id (never an fd — fds get reused, ids do not).
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kUdpTag = 1;
constexpr std::uint64_t kWakeTag = 2;
constexpr std::uint64_t kSessionTagBase = 16;

}  // namespace

MiniProxy::MiniProxy(MiniProxyConfig config)
    : config_(config),
      listener_(Endpoint{config.bind_host, config.http_port}),
      udp_(Endpoint{config.bind_host, config.icp_port}),
      http_endpoint_(listener_.local_endpoint()),
      icp_endpoint_(udp_.local_endpoint()),
      cache_(make_ram_tier(config), make_disk_tier(config)),
      node_(SummaryCacheNodeConfig{
          config.id,
          std::max<std::uint64_t>(1, config.cache_bytes / kAverageDocumentBytes),
          config.bloom}),
      engine_(core::ProtocolEngineConfig{
                  config.id, core::DeltaBatcherConfig{config.update_threshold, 0.0, 0}},
              cache_, nullptr, &node_),
      next_query_number_(std::random_device{}()) {
    backend_kind_ = net::resolve_event_backend_kind(config_.event_backend);
    siblings_.store(std::make_shared<const SiblingTable>(), std::memory_order_release);
    // Config wins over the environment so a test can pin exact fault rates
    // while CI sweeps loss via SC_UDP_FAULT_* without rebuilding.
    const UdpFaultConfig faults =
        config_.udp_faults.any() ? config_.udp_faults : UdpFaultConfig::from_env();
    if (faults.any()) udp_.set_fault_injection(faults);
    const obs::Labels labels{{"mode", share_mode_name(config_.mode)},
                             {"node", std::to_string(config_.id)}};
    auto& reg = obs::metrics();
    const auto counter = [&](const char* name, const char* help) {
        return reg.counter(name, help, labels);
    };
    obs_.requests = counter("sc_proxy_requests_total", "Client GET requests handled");
    obs_.cache_hits = counter(
        "sc_cache_hits_total",
        "Client requests served from the local cache (LOCAL_HIT access-log lines)");
    obs_.cache_misses = counter(
        "sc_cache_misses_total",
        "Client requests not in the local cache (REMOTE_HIT or MISS lines)");
    obs_.remote_hits =
        counter("sc_proxy_remote_hits_total", "Misses satisfied by a sibling cache");
    obs_.origin_fetches =
        counter("sc_proxy_origin_fetches_total", "Misses fetched from the origin server");
    obs_.false_hit_queries =
        counter("sc_proxy_false_hit_queries_total",
                "Sibling replied MISS after its summary predicted a hit");
    obs_.icp_timeouts =
        counter("sc_proxy_icp_timeouts_total",
                "Query rounds where the reply wait expired with replies outstanding");
    obs_.request_latency = reg.histogram("sc_proxy_request_latency_seconds",
                                         "Client request latency (seconds)",
                                         obs::default_latency_bounds(), labels);
    obs_.cached_documents =
        reg.gauge("sc_proxy_cached_documents", "Documents currently cached", labels);
    obs_.cached_bytes =
        reg.gauge("sc_proxy_cached_bytes", "Bytes currently cached", labels);
    obs_.worker_queue_depth = reg.gauge(
        "sc_proxy_worker_queue_depth",
        "Dispatched request lines waiting for a free worker", labels);
    obs_.inflight_requests = reg.gauge(
        "sc_proxy_inflight_requests", "Requests currently being served by workers", labels);
    obs_.write_buffer_bytes = reg.gauge(
        "sc_proxy_write_buffer_bytes",
        "Response bytes buffered for slow readers, awaiting POLLOUT", labels);
    obs_.open_sessions = reg.gauge(
        "sc_proxy_open_sessions", "Accepted client connections currently alive", labels);
    obs_.keepalive_reuses =
        counter("sc_proxy_keepalive_reuses_total",
                "Requests served on an already-used connection (keep-alive wins)");
    obs_.icp_queries_sent = counter("sc_proxy_icp_queries_sent_total", "ICP queries sent");
    obs_.icp_queries_received =
        counter("sc_proxy_icp_queries_received_total", "ICP queries answered");
    obs_.icp_replies_sent =
        counter("sc_proxy_icp_replies_sent_total", "ICP HIT, MISS and HIT_OBJ replies sent");
    obs_.icp_replies_received = counter("sc_proxy_icp_replies_received_total",
                                        "ICP replies received within their query round");
    obs_.updates_sent =
        counter("sc_proxy_updates_sent_total",
                "Broadcast summary update datagrams (one per sibling per datagram)");
    obs_.sibling_fetches =
        counter("sc_proxy_sibling_fetches_total", "Documents fetched from a sibling (SGET)");
    obs_.keepalives_sent =
        counter("sc_proxy_keepalives_sent_total", "SECHO liveness probes sent");
    obs_.keepalives_received =
        counter("sc_proxy_keepalives_received_total", "SECHO liveness probes answered");
    obs_.sibling_death_events = counter("sc_proxy_sibling_death_events_total",
                                        "Siblings declared dead by the liveness check");
    obs_.sibling_recovery_events = counter("sc_proxy_sibling_recovery_events_total",
                                           "Dead siblings heard from again");
    obs_.hit_obj_served = counter("sc_proxy_hit_obj_served_total",
                                  "ICP replies that carried the object inline (HIT_OBJ)");
    obs_.hit_obj_used = counter("sc_proxy_hit_obj_used_total",
                                "Remote hits served from an inline HIT_OBJ object");
    obs_.resync_requests_sent =
        counter("sc_proxy_resync_requests_sent_total",
                "DIRREQs sent: summary resyncs and digest_pull pulls");
    obs_.resync_requests_received = counter("sc_proxy_resync_requests_received_total",
                                            "DIRREQs received asking for our bitmap");
    obs_.resync_fulls_sent =
        counter("sc_proxy_resync_fulls_sent_total",
                "Full-bitmap datagrams sent to one peer (bootstrap, resync, pull)");
    obs_.siblings_joined =
        counter("sc_proxy_siblings_joined_total", "Siblings added while running");
    obs_.idle_closes =
        counter("sc_proxy_idle_closes_total", "Keep-alive sessions closed by the idle sweep");
    if (!config_.access_log_path.empty()) {
        access_log_ = std::make_unique<std::ofstream>(config_.access_log_path,
                                                      std::ios::app);
        if (!*access_log_)
            throw std::runtime_error("cannot open access log: " + config_.access_log_path);
    }
    if (uses_summaries(config_.mode)) {
        // Warm restart (docs/STORAGE.md): fold the recovered disk
        // directory into the counting Bloom filter BEFORE wiring hooks,
        // so the recovered baseline is never streamed as a delta — the
        // siblings' DIRREQs fetch it whole.
        if (cache_.has_disk_tier() && cache_.document_count() > 0)
            (void)node_.rebuild_from_directory(cache_);
        // Every insertion and replacement updates the counting filter
        // (Section V-C). Hooks run under the store's locks; the node's
        // filter lock is a leaf, so a flush may still call into the cache.
        cache_.set_insert_hook(
            [this](const LruCache::Entry& e) { node_.on_cache_insert(e.url); });
        cache_.set_removal_hook(
            [this](const LruCache::Entry& e) { node_.on_cache_erase(e.url); });
    }
}

MiniProxy::~MiniProxy() { stop(); }

MiniProxy::WakePipe::WakePipe() {
    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) < 0)
        throw std::system_error(errno, std::generic_category(), "pipe2");
    read_fd = fds[0];
    write_fd = fds[1];
}

MiniProxy::WakePipe::~WakePipe() {
    ::close(read_fd);
    ::close(write_fd);
}

void MiniProxy::add_sibling(NodeId id, Endpoint icp, Endpoint http) {
    bool joined_running_mesh = false;
    {
        const MutexLock lock(membership_mu_);
        const auto cur = siblings_.load(std::memory_order_acquire);
        auto table = std::make_shared<SiblingTable>();
        table->reserve(cur->size() + 1);
        // Re-adding a known id replaces its entry (endpoint change on
        // rejoin); everyone else's entry is carried over untouched.
        for (const auto& s : *cur)
            if (s->id != id) table->push_back(s);
        table->push_back(std::make_shared<Sibling>(id, icp, http));
        joined_running_mesh = table->size() > cur->size() && started_.load();
        siblings_.store(std::shared_ptr<const SiblingTable>(std::move(table)),
                        std::memory_order_release);
    }
    if (joined_running_mesh) {
        obs::trace(obs::TraceEventType::sibling_joined,
                   static_cast<std::uint16_t>(config_.id), id);
        obs_.siblings_joined.inc();
        wake_loop();  // the repair sweep DIRREQs the newcomer promptly
    }
}

std::shared_ptr<MiniProxy::Sibling> MiniProxy::find_sibling(NodeId id) const {
    const auto sibs = sibling_snapshot();
    for (const auto& s : *sibs)
        if (s->id == id) return s;
    return nullptr;
}

void MiniProxy::start() {
    if (started_.exchange(true)) return;
    const int n = std::max(1, config_.workers);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
    loop_ = std::thread([this] { run(); });
}

void MiniProxy::stop() {
    if (!started_.load()) return;
    {
        // The store must be ordered with the workers' predicate check: set
        // outside jobs_mu_, a worker can read stopping_ == false, then block
        // in wait() just as notify_all fires — a lost wakeup that leaves the
        // join below stuck forever.
        const MutexLock lock(jobs_mu_);
        stopping_.store(true);
    }
    demux_.shutdown();  // workers blocked on a query round return promptly
    jobs_cv_.notify_all();
    wake_loop();  // the loop may be asleep until its next timer deadline
    if (loop_.joinable()) loop_.join();
    for (auto& w : workers_)
        if (w.joinable()) w.join();
    workers_.clear();
    // Only now — with the loop and every worker joined — is it safe to tear
    // down sessions: a worker holds a raw Session* through its Job until the
    // moment it exits, so destroying them from run() raced that access.
    // (run() destroyed the backend on exit, before any fd closes here.)
    for (const auto& [id, s] : sessions_) {
        obs_.write_buffer_bytes.add(-static_cast<double>(s->outbox.size()));
        obs_.open_sessions.add(-1);
    }
    sessions_.clear();
}

std::size_t MiniProxy::cached_documents() const { return cache_.document_count(); }

std::uint64_t MiniProxy::cached_bytes() const { return cache_.used_bytes(); }

std::size_t MiniProxy::recovered_documents() const {
    return cache_.has_disk_tier() ? cache_.l2()->recovered_entries() : 0;
}

void MiniProxy::log_access(HttpLiteStatus status, const HttpLiteRequest& req,
                           std::chrono::steady_clock::time_point started) {
    if (!access_log_) return;
    const auto latency = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - started)
                             .count();
    const auto epoch_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::system_clock::now().time_since_epoch())
                              .count();
    const MutexLock lock(access_log_mu_);
    (*access_log_) << epoch_ms << ' ' << config_.id << ' '
                   << http_lite_status_name(status) << ' ' << req.size << ' ' << latency
                   << ' ' << req.url << '\n';
    access_log_->flush();
}

void MiniProxy::finish_request(Session& s, const SessionRequest& r, HttpLiteStatus status,
                               std::string_view body,
                               std::chrono::steady_clock::time_point started) {
    if (status == HttpLiteStatus::local_hit)
        obs_.cache_hits.inc();
    else
        obs_.cache_misses.inc();
    send_response(s, r, status, body);
    obs_.request_latency.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count());
    log_access(status, r.req, started);
}

SC_EVENT_LOOP_ONLY void MiniProxy::send_keepalives_and_check_liveness() {
    const auto now = std::chrono::steady_clock::now();
    if (now < next_keepalive_) return;
    next_keepalive_ = now + config_.keepalive_interval;

    IcpReply probe;
    probe.opcode = IcpOpcode::secho;
    probe.sender_host = config_.id;
    // Our HTTP port rides in the options so an unknown receiver running
    // dynamic membership can learn us from the probe alone.
    probe.options = http_endpoint_.port;
    const auto payload = encode_reply(probe);
    const auto sibs = sibling_snapshot();
    obs_.keepalives_sent.inc(sibs->size());
    for (const auto& s : *sibs) udp_.send_to(s->icp, payload);
    if (config_.mode == ShareMode::summary && !sibs->empty()) {
        // Tail-loss repair rides the same tick: a lost *last* delta
        // leaves a receiver synced-but-stale forever (gap detection
        // needs a later datagram), so advertise the current sequence
        // with an empty delta. The encode takes node_mu_ — worker, not
        // the event loop.
        enqueue_task([this] { broadcast_seq_heartbeat(); });
    } else if (config_.mode == ShareMode::digest_pull) {
        // The Cache Digest pull: a DIRREQ to every live sibling, answered
        // by serve_resync with the chunked DIRFULL a push stream repairs
        // with.
        for (const auto& s : *sibs)
            if (s->alive.load(std::memory_order_relaxed)) request_resync(*s);
        // Nobody consumes our deltas: drop the log so it stays bounded
        // even when no sibling pulls. It takes no sequence number and
        // sends nothing, so it needs no node_mu_.
        enqueue_task([this] { node_.discard_delta(); });
    }

    const auto deadline = config_.keepalive_interval * config_.liveness_strikes;
    for (const auto& s : *sibs) {
        if (s->alive.load(std::memory_order_relaxed) && now - s->last_heard > deadline) {
            s->alive.store(false, std::memory_order_relaxed);
            // Internally synchronized (RCU writer path) — no node_mu_.
            node_.forget_sibling(s->id);  // stale replica must not attract queries
            obs::trace(obs::TraceEventType::sibling_dead,
                       static_cast<std::uint16_t>(config_.id), s->id);
            obs_.sibling_death_events.inc();
        }
    }
}

SC_EVENT_LOOP_ONLY void MiniProxy::note_heard_from(NodeId sender) {
    const auto sib = find_sibling(sender);
    if (!sib) return;
    sib->last_heard = std::chrono::steady_clock::now();
    if (!sib->alive.load(std::memory_order_relaxed)) {
        // Recovery (Section VI-B): the peer is back. Its replica was
        // forgotten at death, so the repair sweep pulls it afresh; the
        // peer reinitializes its view of us the same way, by DIRREQ.
        sib->alive.store(true, std::memory_order_relaxed);
        obs::trace(obs::TraceEventType::sibling_recovered,
                   static_cast<std::uint16_t>(config_.id), sib->id);
        obs_.sibling_recovery_events.inc();
    }
}

SC_EVENT_LOOP_ONLY void MiniProxy::request_resync(Sibling& sib) {
    const auto now = std::chrono::steady_clock::now();
    if (now < sib.next_resync_request) return;
    sib.next_resync_request = now + config_.resync_interval;
    IcpDirReq req;
    req.sender_host = config_.id;
    req.http_port = http_endpoint_.port;
    obs_.resync_requests_sent.inc();
    udp_.send_to(sib.icp, encode_dirreq(req));
    obs::trace(obs::TraceEventType::resync_requested,
               static_cast<std::uint16_t>(config_.id), sib.id);
}

SC_EVENT_LOOP_ONLY void MiniProxy::serve_resync(Sibling& sib) {
    // Rate-limited per peer: a quarantined or flapping sibling re-asks at
    // resync_interval, and each ask costs us at most one bitmap per
    // interval no matter how many DIRREQs it fires.
    const auto now = std::chrono::steady_clock::now();
    if (now < sib.next_resync_reply) return;
    sib.next_resync_reply = now + config_.resync_interval;
    obs::trace(obs::TraceEventType::resync_served,
               static_cast<std::uint16_t>(config_.id), sib.id);
    const NodeId peer = sib.id;
    enqueue_task([this, peer] { push_full_summary_to(peer); });
}

SC_EVENT_LOOP_ONLY void MiniProxy::maybe_learn_sibling(NodeId id, Endpoint icp,
                                                       std::uint16_t http_port) {
    if (!config_.dynamic_membership || config_.mode != ShareMode::summary) return;
    if (id == config_.id || http_port == 0 || icp.port == 0) return;
    if (find_sibling(id)) return;
    // Everyone who predates the newcomer, captured before the learn so the
    // introduction fan-out below cannot include the newcomer itself.
    const auto veterans = sibling_snapshot();
    // The ICP endpoint plus the advertised HTTP port is everything a
    // sibling entry needs; the repair sweep then DIRREQs its summary.
    add_sibling(id, icp, Endpoint{icp.host, http_port});
    // Membership exchange (the Traffic Server ClusterCom idiom): vouch for
    // the newcomer to every veteran and for every veteran to the newcomer.
    // Receivers that already know the subject drop the introduction;
    // receivers that don't repeat this dance, so one point of contact is
    // enough to join a whole mesh.
    for (const auto& s : *veterans) {
        if (s->id == id) continue;
        IcpDirReq about_newcomer;
        about_newcomer.sender_host = config_.id;
        about_newcomer.http_port = http_endpoint_.port;
        about_newcomer.subject_id = id;
        about_newcomer.subject_icp_host = icp.host;
        about_newcomer.subject_icp_port = icp.port;
        about_newcomer.subject_http_port = http_port;
        udp_.send_to(s->icp, encode_dirreq(about_newcomer));
        IcpDirReq about_veteran;
        about_veteran.sender_host = config_.id;
        about_veteran.http_port = http_endpoint_.port;
        about_veteran.subject_id = s->id;
        about_veteran.subject_icp_host = s->icp.host;
        about_veteran.subject_icp_port = s->icp.port;
        about_veteran.subject_http_port = s->http.port;
        udp_.send_to(icp, encode_dirreq(about_veteran));
    }
}

void MiniProxy::push_full_summary_to(NodeId id) {
    if (!uses_summaries(config_.mode)) return;
    const auto sib = find_sibling(id);
    if (!sib) return;  // left the mesh while the task was queued
    const MutexLock lock(node_mu_);  // send in sequence order (see node_mu_)
    const auto msgs = node_.encode_full_update_chunks();
    obs_.resync_fulls_sent.inc(msgs.size());
    for (const auto& msg : msgs) udp_.send_to(sib->icp, msg);
}

void MiniProxy::broadcast_seq_heartbeat() {
    if (config_.mode != ShareMode::summary) return;
    const auto sibs = sibling_snapshot();
    // Advertising the next sequence before an earlier delta is on the
    // wire would make every receiver read a gap (see node_mu_).
    const MutexLock lock(node_mu_);
    const auto payload = node_.encode_seq_heartbeat();
    for (const auto& s : *sibs)
        if (s->alive.load(std::memory_order_relaxed)) udp_.send_to(s->icp, payload);
}

void MiniProxy::enqueue_task(std::function<void()> task) {
    {
        const MutexLock lock(jobs_mu_);
        task_queue_.push_back(std::move(task));
    }
    jobs_cv_.notify_one();
}

void MiniProxy::send_to_client(Session& s, std::string_view data) {
    if (s.overflow) return;  // session is doomed; stop accumulating
    if (s.outbox.empty()) {
        const std::size_t n = s.conn.write_some(data);
        data.remove_prefix(n);
        if (data.empty()) return;
    }
    // Socket full — or earlier bytes still queued (never reorder). The
    // event loop drains the remainder on POLLOUT after the worker
    // releases the session.
    s.outbox.append(data);
    obs_.write_buffer_bytes.add(static_cast<double>(data.size()));
    if (s.outbox.size() > config_.write_buffer_limit) s.overflow = true;
}

void MiniProxy::send_to_client(Session& s, std::span<const std::uint8_t> data) {
    send_to_client(s, std::string_view(reinterpret_cast<const char*>(data.data()),
                                       data.size()));
}

SC_EVENT_LOOP_ONLY void MiniProxy::flush_outbox(Session& s) {
    const std::size_t n = s.conn.write_some(s.outbox);
    if (n == 0) return;
    s.outbox.erase(0, n);
    obs_.write_buffer_bytes.add(-static_cast<double>(n));
}

SC_EVENT_LOOP_ONLY void MiniProxy::finish_session(std::uint64_t id) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    if (!it->second->outbox.empty() && !it->second->overflow) {
        it->second->close_after_flush = true;  // drain first, then close
        return;
    }
    drop_session(id);
}

SC_EVENT_LOOP_ONLY void MiniProxy::drop_session(std::uint64_t id) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    // Deregister BEFORE the erase closes the fd (the backend contract;
    // also keeps a recycled fd from inheriting stale interest).
    if (it->second->registered && backend_) backend_->remove(it->second->conn.fd());
    obs_.write_buffer_bytes.add(-static_cast<double>(it->second->outbox.size()));
    obs_.open_sessions.add(-1);
    sessions_.erase(it);
}

SC_EVENT_LOOP_ONLY void MiniProxy::update_session_interest(std::uint64_t id, Session& s) {
    // Busy sessions belong to a worker: the loop must not watch the fd at
    // all (the worker writes it, and a readable pipelined request must not
    // be double-dispatched). After EOF, read interest is dropped too — a
    // half-closed fd stays level-triggered-readable forever and would spin
    // the loop while the outbox drains.
    const bool want = !s.busy;
    const bool want_read = want && !s.saw_eof;
    const bool want_write = want && !s.outbox.empty();
    if (!want_read && !want_write) {
        if (s.registered) {
            backend_->remove(s.conn.fd());
            s.registered = false;
        }
        return;
    }
    if (!s.registered) {
        backend_->add(s.conn.fd(), want_read, want_write, kSessionTagBase + id);
        s.registered = true;
        s.registered_read = want_read;
        s.registered_write = want_write;
    } else if (s.registered_read != want_read || s.registered_write != want_write) {
        backend_->modify(s.conn.fd(), want_read, want_write, kSessionTagBase + id);
        s.registered_read = want_read;
        s.registered_write = want_write;
    }
}

SC_EVENT_LOOP_ONLY void MiniProxy::sweep_idle_sessions(
    std::chrono::steady_clock::time_point now) {
    if (config_.idle_timeout.count() <= 0 || now < next_idle_sweep_) return;
    next_idle_sweep_ = now + std::max<std::chrono::milliseconds>(
                                 config_.idle_timeout / 4, std::chrono::milliseconds(10));
    std::vector<std::uint64_t> idle;
    for (const auto& [id, s] : sessions_) {
        if (s->busy || !s->outbox.empty()) continue;  // active, not idle
        if (now - s->last_activity > config_.idle_timeout) idle.push_back(id);
    }
    if (idle.empty()) return;
    // Count before closing: a client that has seen EOF must observe the
    // close as counted.
    obs_.idle_closes.inc(idle.size());
    for (const std::uint64_t id : idle) {
        // Quiet close: no response bytes, no log line — the peer parked a
        // keep-alive connection and walked away.
        obs::trace(obs::TraceEventType::session_idle_closed,
                   static_cast<std::uint16_t>(config_.id), id & 0xffffffffu);
        drop_session(id);
    }
}

void MiniProxy::wake_loop() {
    const char byte = 'w';
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    (void)!::write(wake_pipe_.write_fd, &byte, 1);
}

SC_EVENT_LOOP_ONLY bool MiniProxy::pump_session(std::uint64_t id, Session& s) {
    if (s.busy) return true;
    // Backpressure: while buffered response bytes await POLLOUT, hold the
    // next pipelined request (flush_outbox re-pumps once drained).
    if (!s.outbox.empty()) return true;
    // Feed buffered lines through the parser until one completes a request
    // (HTTP header lines consume several lines per request).
    while (auto line = s.conn.buffered_line()) {
        auto request = s.parser.on_line(*line);
        if (!request) continue;
        s.last_activity = std::chrono::steady_clock::now();
        ++s.requests_dispatched;
        if (s.requests_dispatched > 1) obs_.keepalive_reuses.inc();
        if (config_.max_requests_per_connection != 0 &&
            s.requests_dispatched >= config_.max_requests_per_connection)
            request->keep_alive = false;  // rotate: close after this response
        s.busy = true;
        {
            const MutexLock lock(jobs_mu_);
            job_queue_.push_back(Job{id, &s, std::move(*request)});
        }
        obs_.worker_queue_depth.add(1);
        jobs_cv_.notify_one();
        return true;
    }
    // Peer closed; buffered requests all served. (EOF inside an HTTP
    // header block aborts that half-request with it.)
    if (s.saw_eof) return false;
    // A stream this long without a newline is not a request line. Its
    // unread tail makes the close a reset; sending FIN first lets the
    // client read a clean EOF rather than ECONNRESET.
    if (s.conn.buffered_bytes() > kMaxRequestLineBytes) {
        (void)::shutdown(s.conn.fd(), SHUT_WR);
        return false;
    }
    return true;
}

SC_EVENT_LOOP_ONLY void MiniProxy::run() {
    {
        // Entries may have been constructed well before start(); the
        // liveness clock starts when the loop does.
        const auto sibs = sibling_snapshot();
        for (const auto& s : *sibs) s->last_heard = std::chrono::steady_clock::now();
    }
    next_keepalive_ = std::chrono::steady_clock::now() + config_.keepalive_interval;
    next_idle_sweep_ = std::chrono::steady_clock::now();
    // The backend lives exactly as long as the loop: fds registered here
    // are deregistered before their owners close them, and stop() tears
    // sessions down only after this thread (and the backend) is gone.
    backend_ = make_event_backend(backend_kind_);
    backend_->add(listener_.fd(), true, false, kListenerTag);
    backend_->add(udp_.fd(), true, false, kUdpTag);
    backend_->add(wake_pipe_.read_fd, true, false, kWakeTag);
    std::vector<net::ReadyEvent> ready;
    std::vector<Completion> done;
    while (!stopping_.load()) {
        const auto now = std::chrono::steady_clock::now();
        send_keepalives_and_check_liveness();
        sweep_idle_sessions(now);
        // No fixed tick: sleep until the earliest pending timer. Anything
        // that needs the loop sooner (worker completions, runtime joins,
        // stop()) writes the wake pipe.
        auto deadline = next_keepalive_;
        if (config_.idle_timeout.count() > 0) deadline = std::min(deadline, next_idle_sweep_);
        if (uses_summaries(config_.mode)) {
            // Repair sweep: any live peer whose update stream is unsynced
            // gets a DIRREQ, rate-limited per peer, and its answer is the
            // only way a replica is built. That covers boot, a runtime
            // joiner, a recovered or restarted peer, quarantine after a
            // gap, a lost DIRREQ or lost full, and a digest puller's
            // first pull. While any peer is unsynced, wake again when its
            // rate limit next opens instead of sleeping until the
            // keepalive tick.
            const auto sibs = sibling_snapshot();
            for (const auto& s : *sibs)
                if (s->alive.load(std::memory_order_relaxed) &&
                    node_.sibling_needs_resync(s->id)) {
                    request_resync(*s);
                    deadline = std::min(
                        deadline, std::max(s->next_resync_request,
                                           now + std::chrono::milliseconds(1)));
                }
        }

        ready.clear();
        backend_->wait(deadline, ready);

        // Worker completions first: they idle sessions that may have more
        // buffered (pipelined) requests ready to dispatch.
        done.clear();
        {
            const MutexLock lock(jobs_mu_);
            done.swap(completions_);
        }
        for (const Completion& c : done) {
            const auto it = sessions_.find(c.session_id);
            if (it == sessions_.end()) continue;
            Session& s = *it->second;
            s.busy = false;
            s.last_activity = std::chrono::steady_clock::now();
            if (s.overflow) {
                drop_session(c.session_id);
                continue;
            }
            if (!c.keep || !pump_session(c.session_id, s)) finish_session(c.session_id);
            // The session may be gone (dropped), draining (close_after_flush
            // needs write interest), idle again, or re-busy (pipelined
            // dispatch): sync its registration with whatever it became.
            if (const auto again = sessions_.find(c.session_id); again != sessions_.end())
                update_session_interest(c.session_id, *again->second);
        }

        for (const net::ReadyEvent& ev : ready) {
            if (ev.tag == kWakeTag) {
                char drain[256];
                while (::read(wake_pipe_.read_fd, drain, sizeof drain) > 0) {}
                continue;
            }
            if (ev.tag == kListenerTag) {
                while (auto conn = listener_.accept(0)) {
                    const std::uint64_t id = next_session_id_++;
                    auto [it, inserted] =
                        sessions_.emplace(id, std::make_unique<Session>(std::move(*conn)));
                    obs_.open_sessions.add(1);
                    update_session_interest(id, *it->second);
                }
                continue;
            }
            if (ev.tag == kUdpTag) {
                while (auto dgram = udp_.receive(0)) handle_datagram(*dgram);
                continue;
            }
            // A session event. Stale tags (the session was dropped while
            // this batch was being processed) simply miss the map — a tag
            // is never recycled, unlike an fd.
            const std::uint64_t sid = ev.tag - kSessionTagBase;
            const auto it = sessions_.find(sid);
            if (it == sessions_.end() || it->second->busy) continue;
            Session& s = *it->second;
            bool drop = false;
            if (ev.writable) {
                try {
                    flush_outbox(s);
                } catch (const std::exception&) {
                    drop = true;  // reader went away with bytes still queued
                }
                if (!drop && s.outbox.empty() && s.close_after_flush) {
                    drop_session(sid);
                    continue;
                }
            }
            if (!drop && (ev.readable || ev.hangup || ev.error)) {
                try {
                    // Only the bytes available right now: a slow or malicious
                    // client that stops mid-line parks its partial buffer here
                    // and we resume on its next readiness event — it can no
                    // longer wedge the loop in a blocking read.
                    if (s.conn.fill_available() == TcpConnection::Fill::eof)
                        s.saw_eof = true;
                    else
                        s.last_activity = std::chrono::steady_clock::now();
                } catch (const std::exception&) {
                    drop = true;  // ECONNRESET and friends
                }
            }
            if (drop)
                drop_session(sid);
            else if (!pump_session(sid, s))
                finish_session(sid);
            if (const auto again = sessions_.find(sid); again != sessions_.end())
                update_session_interest(sid, *again->second);
        }
    }
    // Deregistration order vs close: the backend dies first, while every
    // registered fd is still open. Session teardown happens in stop(),
    // after the workers have joined.
    backend_.reset();
}

void MiniProxy::worker_loop() {
    WorkerCtx ctx;
    for (;;) {
        Job job;
        std::function<void()> task;
        {
            MutexLock lock(jobs_mu_);
            jobs_cv_.wait(lock, [this] {
                return stopping_.load() || !task_queue_.empty() || !job_queue_.empty();
            });
            if (stopping_.load()) return;  // shutdown drops queued work
            if (!task_queue_.empty()) {
                // Control-plane work (summary pushes) jumps the request
                // queue: a peer waiting on a resync must not sit behind a
                // convoy of slow origin fetches.
                task = std::move(task_queue_.front());
                task_queue_.pop_front();
            } else {
                job = std::move(job_queue_.front());
                job_queue_.pop_front();
            }
        }
        if (task) {
            try {
                task();
            } catch (const std::exception&) {
                // a push to a vanished peer is not worth a crash
            }
            continue;
        }
        obs_.worker_queue_depth.add(-1);
        obs_.inflight_requests.add(1);
        bool keep = false;
        try {
            keep = handle_client_request(*job.session, job.request, ctx);
        } catch (const std::exception&) {
            // protocol error or broken pipe: drop client
        }
        obs_.inflight_requests.add(-1);
        {
            const MutexLock lock(jobs_mu_);
            completions_.push_back({job.session_id, keep});
        }
        wake_loop();
    }
}

void MiniProxy::send_response(Session& s, const SessionRequest& r,
                              HttpLiteStatus status, std::string_view body) {
    if (r.http_style) {
        std::string head = "HTTP/1.1 ";
        head += status == HttpLiteStatus::error        ? "400 Bad Request"
                : status == HttpLiteStatus::not_cached ? "404 Not Found"
                                                       : "200 OK";
        // The lite status rides in a header so HTTP clients can still
        // distinguish local/remote/origin service.
        head += "\r\nX-SC-Status: ";
        head += http_lite_status_name(status);
        head += "\r\nContent-Type: text/plain\r\nContent-Length: ";
        head += std::to_string(body.size());
        head += r.keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                             : "\r\nConnection: close\r\n\r\n";
        send_to_client(s, head);
    } else {
        send_to_client(s, format_response_header({status, body.size()}));
    }
    if (!body.empty()) send_to_client(s, body);
}

bool MiniProxy::handle_client_request(Session& s, const SessionRequest& r,
                                      WorkerCtx& ctx) {
    if (r.admin) {
        serve_admin(s, r);
        return r.keep_alive;
    }
    if (r.parse_error) {
        send_response(s, r, HttpLiteStatus::error, {});
        return r.keep_alive;
    }
    const HttpLiteRequest* req = &r.req;

    if (req->sibling_only) {
        // SGET: serve from cache only; a stale or absent copy is NOT_CACHED.
        if (engine_.lookup_local(req->url, req->version) == LruCache::Lookup::hit)
            send_response(s, r, HttpLiteStatus::local_hit, synth_body(req->size));
        else
            send_response(s, r, HttpLiteStatus::not_cached, {});
        return r.keep_alive;
    }

    const auto started = std::chrono::steady_clock::now();
    obs_.requests.inc();

    if (engine_.lookup_local(req->url, req->version) == LruCache::Lookup::hit) {
        finish_request(s, r, HttpLiteStatus::local_hit, synth_body(req->size), started);
        return r.keep_alive;
    }

    // Local miss: discover a remote copy per the configured protocol.
    // Dead siblings are never queried.
    std::vector<NodeId> targets;
    if (config_.mode == ShareMode::icp) {
        const auto sibs = sibling_snapshot();
        targets.reserve(sibs->size());
        for (const auto& sib : *sibs)
            if (sib->alive.load(std::memory_order_relaxed)) targets.push_back(sib->id);
    } else if (uses_summaries(config_.mode)) {
        targets = engine_.probe(req->url);
    }

    const auto serve_remote_hit = [&](NodeId from, bool inline_obj) {
        obs_.remote_hits.inc();
        if (inline_obj) obs_.hit_obj_used.inc();
        obs::trace(obs::TraceEventType::remote_hit,
                   static_cast<std::uint16_t>(config_.id), from, inline_obj ? 1 : 0);
        insert_document(*req);
        finish_request(s, r, HttpLiteStatus::remote_hit, synth_body(req->size), started);
    };

    bool served_remote = false;
    if (!targets.empty() && uses_summaries(config_.mode)) {
        // SC-ICP probes the promising siblings ONE AT A TIME, stopping at
        // the first fresh copy — the message economy the simulator counts
        // (the parity test holds the two to the same tallies). A HIT whose
        // copy is gone or stale by SGET time ends the round at the origin.
        bool inline_obj = false;
        const core::RoundOutcome round = engine_.run_sequential_round(
            targets, [&](std::uint32_t id) {
                const QueryOutcome one = query_siblings(*req, {id});
                if (one.inline_object) {
                    inline_obj = true;
                    return core::PeerAnswer::fresh;
                }
                if (one.hits.empty()) return core::PeerAnswer::absent;
                if (fetch_from_sibling(id, *req)) return core::PeerAnswer::fresh;
                return core::PeerAnswer::stale;
            });
        if (round.winner) {
            serve_remote_hit(*round.winner, inline_obj);
            served_remote = true;
        }
    } else if (!targets.empty()) {
        // Classic ICP: one multicast round; every reply comes back.
        const QueryOutcome outcome = query_siblings(*req, targets);
        if (outcome.inline_object) {
            // A fresh HIT_OBJ already delivered the body: no TCP fetch.
            serve_remote_hit(0, true);
            served_remote = true;
        } else {
            for (const NodeId id : outcome.hits) {
                if (fetch_from_sibling(id, *req)) {
                    serve_remote_hit(id, false);
                    served_remote = true;
                    break;
                }
            }
        }
    }
    if (served_remote) return r.keep_alive;

    const std::string body = fetch_from_origin(*req, ctx);
    obs_.origin_fetches.inc();
    insert_document(*req);
    finish_request(s, r, HttpLiteStatus::miss, body, started);
    return r.keep_alive;
}

void MiniProxy::serve_admin(Session& s, const SessionRequest& r) {
    // curl speaks "GET <path> HTTP/1.x" followed by a header block (the
    // parser consumed it — no blocking drain here); the http-lite client
    // sends the bare request line. Both answers flow through the outbox
    // like every other response, and HTTP keep-alive is honored.
    const std::string body = r.admin_trace
                                 ? obs::trace_to_json(obs::TraceRing::global().drain())
                                 : obs::to_prometheus(obs::metrics().snapshot());
    if (r.http_style) {
        std::string head = "HTTP/1.1 200 OK\r\nContent-Type: ";
        head += r.admin_trace ? "application/json" : "text/plain; version=0.0.4";
        head += "\r\nContent-Length: ";
        head += std::to_string(body.size());
        head += r.keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                             : "\r\nConnection: close\r\n\r\n";
        send_to_client(s, head);
    } else {
        send_to_client(s, format_response_header({HttpLiteStatus::ok, body.size()}));
    }
    send_to_client(s, body);
}

MiniProxy::QueryOutcome MiniProxy::query_siblings(const HttpLiteRequest& req,
                                                  const std::vector<NodeId>& targets) {
    const std::uint32_t qn =
        next_query_number_.fetch_add(1, std::memory_order_relaxed);
    IcpReplyWaiter waiter = demux_.register_query(qn);
    IcpQuery query;
    query.request_number = qn;
    query.sender_host = config_.id;
    query.requester_host = config_.id;
    query.url = req.url;
    const auto payload = encode_query(query);

    std::size_t sent = 0;
    for (const NodeId id : targets) {
        const auto sib = find_sibling(id);
        if (!sib) continue;
        udp_.send_to(sib->icp, payload);
        ++sent;
    }
    obs_.icp_queries_sent.inc(sent);
    QueryOutcome outcome;
    if (sent == 0) return outcome;

    std::size_t replies = 0;
    const auto deadline = std::chrono::steady_clock::now() + config_.query_timeout;
    while (replies < sent && !outcome.inline_object) {
        // The event loop receives every datagram; replies for our round
        // arrive through the demux, so concurrent workers' rounds can
        // never consume each other's replies.
        auto dgram = waiter.wait_next(deadline);
        if (!dgram) break;  // timeout or shutdown
        IcpHeader header;
        try {
            header = decode_header(dgram->payload);
        } catch (const WireError&) {
            continue;  // cannot happen: the loop validated before routing
        }
        ++replies;
        obs_.icp_replies_received.inc();
        if (header.opcode == IcpOpcode::miss && uses_summaries(config_.mode)) {
            obs_.false_hit_queries.inc();
            obs::trace(obs::TraceEventType::false_positive_probe,
                       static_cast<std::uint16_t>(config_.id), header.sender_host);
        }
        if (header.opcode == IcpOpcode::hit) {
            outcome.hits.push_back(header.sender_host);
        } else if (header.opcode == IcpOpcode::hit_obj) {
            try {
                const IcpHitObj obj = decode_hit_obj(dgram->payload);
                if (obj.version == static_cast<std::uint32_t>(req.version) &&
                    obj.object.size() == req.size) {
                    outcome.inline_object = true;
                } else {
                    // Stale or odd inline copy: fall back to SGET.
                    outcome.hits.push_back(header.sender_host);
                }
            } catch (const WireError&) {
                outcome.hits.push_back(header.sender_host);
            }
        }
    }
    if (replies < sent && !outcome.inline_object) {
        obs_.icp_timeouts.inc();
        obs::trace(obs::TraceEventType::icp_timeout,
                   static_cast<std::uint16_t>(config_.id), sent - replies);
    }
    return outcome;
}

SC_EVENT_LOOP_ONLY void MiniProxy::handle_datagram(const Datagram& dgram) {
    IcpHeader header;
    try {
        header = decode_header(dgram.payload);
    } catch (const WireError&) {
        return;  // malformed datagram: drop
    }
    if (header.opcode == IcpOpcode::secho) {
        // A liveness probe carries the sender's HTTP port in the options:
        // enough to learn an unknown peer before refreshing its liveness.
        maybe_learn_sibling(header.sender_host, dgram.from,
                            static_cast<std::uint16_t>(header.options & 0xffffu));
    }
    note_heard_from(header.sender_host);
    const bool is_reply = header.opcode == IcpOpcode::hit ||
                          header.opcode == IcpOpcode::miss ||
                          header.opcode == IcpOpcode::hit_obj;
    if (is_reply) {
        // Route to the worker that owns this query round; unknown or
        // expired request numbers (delayed replies from an earlier round,
        // a restarted peer) are counted and dropped, never misdelivered.
        (void)demux_.dispatch(header.request_number, dgram);
        return;
    }
    handle_datagram_body(dgram, header);
}

SC_EVENT_LOOP_ONLY void MiniProxy::handle_datagram_body(const Datagram& dgram, const IcpHeader& header) {
    switch (header.opcode) {
        case IcpOpcode::query:
            answer_query(dgram);
            break;
        case IcpOpcode::dirupdate:
        case IcpOpcode::dirfull:
            try {
                const IcpDirUpdate update = decode_dirupdate(dgram.payload);
                // Replica ingestion is internally synchronized — no node_mu_.
                // Counted as sc_node_updates_applied_total when applied.
                const auto result = node_.apply_sibling_update(update);
                if (summary_apply_needs_resync(result)) {
                    // Gap, unknown sender boot, or quarantined stream: the
                    // replica cannot be trusted until a full bitmap lands.
                    // Ask for one (rate-limited; the run()-loop sweep
                    // re-asks if this DIRREQ or its answer is lost too).
                    if (const auto sib = find_sibling(header.sender_host))
                        request_resync(*sib);
                }
            } catch (const WireError&) {
                // corrupt update: drop; the resync sweep repairs us
            }
            break;
        case IcpOpcode::dirreq: {
            IcpDirReq resync;
            try {
                resync = decode_dirreq(dgram.payload);
            } catch (const WireError&) {
                break;
            }
            if (resync.subject_id == 0) obs_.resync_requests_received.inc();
            maybe_learn_sibling(resync.sender_host, dgram.from, resync.http_port);
            if (resync.subject_id != 0) {
                // An introduction teaches us about a third peer; it asks
                // for no bitmap (the repair sweep DIRREQs the newly
                // learned subject directly).
                maybe_learn_sibling(
                    static_cast<NodeId>(resync.subject_id),
                    Endpoint{resync.subject_icp_host, resync.subject_icp_port},
                    resync.subject_http_port);
            } else if (const auto sib = find_sibling(resync.sender_host)) {
                serve_resync(*sib);
            }
            break;
        }
        case IcpOpcode::secho: {
            // Liveness probe: echo back so the sender keeps us alive.
            obs_.keepalives_received.inc();
            IcpReply echo;
            echo.opcode = IcpOpcode::decho;
            echo.request_number = header.request_number;
            echo.sender_host = config_.id;
            udp_.send_to(dgram.from, encode_reply(echo));
            break;
        }
        case IcpOpcode::decho:
            break;  // note_heard_from already refreshed the peer
        default:
            break;  // unknown opcodes are dropped
    }
}

SC_EVENT_LOOP_ONLY void MiniProxy::answer_query(const Datagram& dgram) {
    IcpQuery query;
    try {
        query = decode_query(dgram.payload);
    } catch (const WireError&) {
        return;
    }
    obs_.icp_queries_received.inc();

    // Small cached documents ride back inline (ICP_OP_HIT_OBJ).
    if (config_.hit_obj_max_bytes > 0) {
        if (const auto entry = cache_.entry_copy(query.url);
            entry &&
            entry->size <= std::min<std::uint64_t>(config_.hit_obj_max_bytes,
                                                   kMaxHitObjBytes)) {
            IcpHitObj obj;
            obj.request_number = query.request_number;
            obj.sender_host = config_.id;
            obj.version = static_cast<std::uint32_t>(entry->version);
            obj.url = query.url;
            const std::string body = synth_body(entry->size);
            obj.object.assign(body.begin(), body.end());
            obs_.icp_replies_sent.inc();
            obs_.hit_obj_served.inc();
            udp_.send_to(dgram.from, encode_hit_obj(obj));
            return;
        }
    }

    IcpReply reply;
    reply.opcode = cache_.contains(query.url) ? IcpOpcode::hit : IcpOpcode::miss;
    reply.request_number = query.request_number;
    reply.sender_host = config_.id;
    reply.url = query.url;
    obs_.icp_replies_sent.inc();
    udp_.send_to(dgram.from, encode_reply(reply));
}

std::optional<std::string> MiniProxy::fetch_from_sibling(NodeId id, const HttpLiteRequest& req) {
    const auto sib = find_sibling(id);
    if (!sib) return std::nullopt;
    try {
        TcpConnection conn = TcpConnection::connect(sib->http);
        set_receive_timeout(conn.fd(), config_.fetch_timeout);
        HttpLiteRequest sreq = req;
        sreq.sibling_only = true;
        conn.write_all(format_request(sreq));
        const auto line = conn.read_line();
        if (!line) return std::nullopt;
        const auto header = parse_response_header(*line);
        if (!header || header->status != HttpLiteStatus::local_hit) return std::nullopt;
        std::string body;
        conn.read_exact(header->size, body);
        obs_.sibling_fetches.inc();
        return body;
    } catch (const std::exception&) {
        return std::nullopt;  // timeout or connection failure: fall to origin
    }
}

std::string MiniProxy::fetch_from_origin(const HttpLiteRequest& req, WorkerCtx& ctx) {
    for (int attempt = 0; attempt < 2; ++attempt) {
        try {
            if (!ctx.origin_conn || !ctx.origin_conn->valid())
                ctx.origin_conn = TcpConnection::connect(config_.origin);
            ctx.origin_conn->write_all(format_request(req));
            const auto line = ctx.origin_conn->read_line();
            if (!line) throw std::runtime_error("origin closed connection");
            const auto header = parse_response_header(*line);
            if (!header || header->status != HttpLiteStatus::ok)
                throw std::runtime_error("bad origin response");
            std::string body;
            ctx.origin_conn->read_exact(header->size, body);
            return body;
        } catch (const std::exception&) {
            ctx.origin_conn.reset();  // reconnect once, then give up
            if (attempt == 1) throw;
        }
    }
    return {};  // unreachable
}

void MiniProxy::insert_document(const HttpLiteRequest& req) {
    if (!engine_.admit(req.url, req.size, req.version)) return;
    obs_.cached_documents.set(static_cast<double>(cache_.document_count()));
    obs_.cached_bytes.set(static_cast<double>(cache_.used_bytes()));
    if (config_.mode == ShareMode::summary) broadcast_updates();
    // digest_pull: siblings pull the whole digest on their own schedule.
}

void MiniProxy::broadcast_updates() {
    // The batcher elects exactly one flusher per threshold crossing:
    // concurrent workers' inserts coalesce into that flusher's batch
    // instead of each worker broadcasting its own delta. The batch goes on
    // the wire inside the flush, under node_mu_: the next flusher, and
    // the next heartbeat, take their sequence numbers after it is sent.
    const auto flushed = engine_.maybe_flush(0.0, [this] {
        const auto sibs = sibling_snapshot();
        const MutexLock lock(node_mu_);
        const auto msgs = node_.encode_pending_updates();
        for (const auto& msg : msgs)
            for (const auto& s : *sibs) udp_.send_to(s->icp, msg);
        return msgs.size() * sibs->size();
    });
    if (flushed) obs_.updates_sent.inc(flushed->first);
}

}  // namespace sc

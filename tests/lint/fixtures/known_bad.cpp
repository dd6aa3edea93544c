// sc_lint fixture: one seeded violation per rule, at lines the tests pin
// exactly. Never compiled — lint input only. Adding lines above existing
// seeds breaks tests/lint/sc_lint_test.cpp on purpose: update both.
#include <mutex>

namespace fixture {

std::mutex raw_mu;  // seed 1 (line 8): raw-mutex

void locked() {
    const std::lock_guard lock(raw_mu);  // seed 2 (line 11): raw-mutex
}

SC_HOT_PATH unsigned* hot_alloc() {
    return new unsigned[4];  // seed 3 (line 15): hotpath-alloc
}

SC_HOT_PATH void hot_grow(Vec& v) {
    v.push_back(1u);  // seed 4 (line 19): hotpath-alloc, no waiver
}

SC_EVENT_LOOP_ONLY void stall() {
    wait_readable(fd_, 50);  // seed 5 (line 23): eventloop-blocking
    sleep_for(ms(10));       // seed 6 (line 24): eventloop-blocking
}

unsigned overflow_bait(unsigned counter_bits) {
    return (1u << counter_bits) - 1u;  // seed 7 (line 28): raw-counter-shift
}

SC_EVENT_LOOP_ONLY void disk_on_loop() {
    const int fd = open(path_, 0);  // seed 8 (line 32): eventloop-blocking
    pread(fd, buf_, 16, 0);         // seed 9 (line 33): eventloop-blocking
    pwrite(fd, buf_, 16, 0);        // seed 10 (line 34): eventloop-blocking
    fsync(fd);                      // seed 11 (line 35): eventloop-blocking
    fdatasync(fd);                  // seed 12 (line 36): eventloop-blocking
    ftruncate(fd, 0);               // seed 13 (line 37): eventloop-blocking
}

SC_EVENT_LOOP_ONLY void summary_on_loop() {
    const MutexLock lock(node_mu_);  // seed 14 (line 41): eventloop-blocking
    encode_full_update();            // seed 15 (line 42): eventloop-blocking
    encode_full_update_chunks();     // seed 16 (line 43): eventloop-blocking
    encode_pending_updates();        // seed 17 (line 44): eventloop-blocking
}

void readiness_by_hand() {
    ::poll(fds_, n_, 50);           // seed 18 (line 48): raw-poll
    epoll_wait(ep_, evs_, 64, -1);  // seed 19 (line 49): raw-poll
    ppoll(fds_, n_, &ts_, &set_);   // seed 20 (line 50): raw-poll
}

SC_EVENT_LOOP_ONLY void oneshot_on_loop() {
    net::wait_fd_readable(fd_, 50);  // seed 21 (line 54): eventloop-blocking
}

SC_UNTRUSTED_DECODE_TU;

void raw_decode_reads(const Buf& b, unsigned off) {
    unsigned v = 0;
    memcpy(&v, b.ptr, 4);                                  // seed 22 (line 61): raw-decode
    const char* p = reinterpret_cast<const char*>(b.ptr);  // seed 23 (line 62): raw-decode
    use(b.data() + off);                                   // seed 24 (line 63): raw-decode
    sscanf(p, "%u", &v);                                   // seed 25 (line 64): raw-decode
}

void switch_missing_cases(IcpOpcode op) {
    switch (op) {  // seed 26 (line 68): exhaustive-wire-switch
        case IcpOpcode::query: break;
        case IcpOpcode::hit: break;
    }
}

void stale_rule_name() {
    // sc_lint: allow(no-such-rule) typo'd rule id  -- seed 27 (line 75): waiver-sanity
    use(0);
}

}  // namespace fixture

// serve-socket: the lfp_serve daemon, spawned as its own process and driven
// over one unix-socket connection while a recurring census (500 ms after
// each publish) publishes snapshots underneath the readers:
//   1. open loop: requests sent on a fixed 20k/s schedule, pipelined, each
//      timed from when it was due, so a stall also charges the requests
//      queued behind it; it spans two scheduled censuses;
//   2. closed loop (one request outstanding) and 3. TRIGGER round trips
//      (census, build, publish through the daemon), in cycles fitted
//      between scheduled censuses — see quiet_cycles().
// The daemon is a separate process, so its allocations are counted by
// replaying the same request stream in process through the daemon's
// per-request path: frame decode, serve::handle_request, frame encode.
#include <array>
#include <cstring>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "alloc_count.hpp"
#include "probe/sim_transport.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"
#include "trace.hpp"
#include "util/spsc_ring.hpp"
#include "workloads.hpp"

extern char** environ;

namespace lfpbench {
namespace {

using namespace std::chrono_literals;

constexpr const char* kSocketPath = "lfpbench.sock";
constexpr double kScale = 2.0;
constexpr double kOpenLoopRate = 20'000.0;
constexpr double kGeneratorLateLimitUs = 100.0;
/// The open-loop generator spins only this long before each due time.
constexpr std::uint64_t kSpinNs = 20'000;

struct Phases {
    /// Open loop length: long enough to span two scheduled censuses.
    double open_s;
    /// Closed loop per cycle, and cycles (two TRIGGERs each); see
    /// quiet_cycles().
    double closed_s;
    int cycles;
    /// Requests replayed in process for the allocation count.
    std::size_t replayed;
};
constexpr Phases kFullPhases{1.6, 0.15, 4, 20'000};
constexpr Phases kSmokePhases{1.0, 0.1, 2, 2'000};

/// lfp_serve's world (tools/lfp_serve.cpp), rebuilt from the same fixed
/// seeds: the request stream needs its targets and ASNs, and the in-process
/// measurements need the census the daemon runs.
struct ServeWorld {
    ServeWorld()
        : topology(lfp::sim::Topology::build({.seed = 77,
                                              .num_ases = 200,
                                              .tier1_count = 6,
                                              .transit_fraction = 0.2,
                                              .scale = kScale})),
          internet(topology, {.seed = 13, .loss_rate = 0.02}),
          transport(internet) {
        for (std::size_t i = 0; i < topology.router_count(); ++i) {
            targets.push_back(topology.router(i).interfaces().front());
            addresses.push_back(targets.back().to_string());
            asns.push_back(topology.asn_of(i));
        }
    }

    ServeWorld(const ServeWorld&) = delete;
    ServeWorld& operator=(const ServeWorld&) = delete;

    [[nodiscard]] lfp::core::CensusPlan plan() {
        lfp::core::CensusPlan plan;
        plan.name = "serve";
        plan.targets = targets;
        plan.vantages.push_back(&transport);
        plan.campaign.window = 32;
        plan.passes = 3;
        plan.worker_threads = 0;
        return plan;
    }

    lfp::sim::Topology topology;
    lfp::sim::Internet internet;
    lfp::probe::SimTransport transport;
    std::vector<lfp::net::IPv4Address> targets;
    std::vector<std::string> addresses;
    std::vector<std::uint32_t> asns;
};

enum class Verb : std::uint8_t { ping, vendor, path, asmix };
constexpr std::array<const char*, 4> kVerbNames = {"ping", "vendor", "path", "asmix"};

/// The seeded request mix: 85% VENDOR of a known target, 5% PING, 8% PATH
/// over 8 known hops, 2% ASMIX of an AS the census observed.
class RequestMix {
  public:
    struct Request {
        Verb verb;
        std::string text;
    };

    RequestMix(std::uint64_t seed, const ServeWorld& world) : rng_(seed), world_(&world) {}

    Request next() {
        const std::uint64_t roll = rng_() % 100;
        if (roll < 85) return {Verb::vendor, "VENDOR " + address()};
        if (roll < 90) return {Verb::ping, "PING"};
        if (roll < 98) {
            std::string text = "PATH";
            for (int hop = 0; hop < 8; ++hop) text += " " + address();
            return {Verb::path, std::move(text)};
        }
        return {Verb::asmix, "ASMIX " + std::to_string(world_->asns[rng_() % world_->asns.size()])};
    }

  private:
    const std::string& address() { return world_->addresses[rng_() % world_->addresses.size()]; }

    std::mt19937_64 rng_;
    const ServeWorld* world_;
};

void append_frame(std::string& wire, std::string_view payload) {
    const auto size = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) wire += static_cast<char>((size >> (8 * i)) & 0xFF);
    wire += payload;
}

std::uint64_t field_u64(std::string_view text, std::string_view key) {
    const auto at = text.find(key);
    if (at == std::string_view::npos) return 0;
    return std::strtoull(std::string(text.substr(at + key.size(), 24)).c_str(), nullptr, 10);
}

bool is_ok(std::string_view response) { return response.rfind("OK", 0) == 0; }

/// One client connection speaking serve/wire.hpp framing. Sends and reads
/// may run on two threads at once (the open loop's generator and reader).
class Client {
  public:
    Client() = default;
    ~Client() {
        if (fd_ >= 0) ::close(fd_);
    }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    bool connect(const char* path) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) return false;
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        std::strncpy(address.sun_path, path, sizeof(address.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) == 0) {
            return true;
        }
        ::close(fd_);
        fd_ = -1;
        return false;
    }

    bool send_all(const char* data, std::size_t size) {
        while (size > 0) {
            const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
            if (n <= 0) return false;
            data += n;
            size -= static_cast<std::size_t>(n);
        }
        return true;
    }

    /// The next response payload, or nullopt on EOF, error or `timeout`
    /// without progress.
    std::optional<std::string> read_frame(std::chrono::milliseconds timeout) {
        while (true) {
            if (buffer_.size() - offset_ >= 4) {
                std::uint32_t size = 0;
                for (int i = 0; i < 4; ++i) {
                    size |= static_cast<std::uint32_t>(
                                static_cast<unsigned char>(buffer_[offset_ + i]))
                            << (8 * i);
                }
                if (buffer_.size() - offset_ >= 4u + size) {
                    std::string payload = buffer_.substr(offset_ + 4, size);
                    offset_ += 4u + size;
                    if (offset_ >= sizeof(chunk_)) {
                        buffer_.erase(0, offset_);
                        offset_ = 0;
                    }
                    return payload;
                }
            }
            pollfd waiter{fd_, POLLIN, 0};
            if (::poll(&waiter, 1, static_cast<int>(timeout.count())) <= 0) return std::nullopt;
            const ssize_t n = ::recv(fd_, chunk_, sizeof(chunk_), 0);
            if (n <= 0) return std::nullopt;
            buffer_.append(chunk_, static_cast<std::size_t>(n));
        }
    }

    std::optional<std::string> round_trip(std::string_view request,
                                          std::chrono::milliseconds timeout = 30s) {
        std::string wire;
        append_frame(wire, request);
        if (!send_all(wire.data(), wire.size())) return std::nullopt;
        return read_frame(timeout);
    }

  private:
    int fd_ = -1;
    std::string buffer_;      ///< received bytes; frames before offset_ are consumed
    std::size_t offset_ = 0;
    char chunk_[65536];
};

/// The spawned daemon. The destructor kills it if it is still running.
class Daemon {
  public:
    Daemon(const std::string& binary, std::vector<std::string> args) {
        args.insert(args.begin(), binary);
        std::vector<char*> argv;
        for (std::string& arg : args) argv.push_back(arg.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        ::posix_spawn_file_actions_init(&actions);
        ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "serve.log",
                                           O_WRONLY | O_CREAT | O_TRUNC, 0644);
        ::posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
        const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                                     environ);
        ::posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + binary + ": " + std::strerror(rc));
        }
    }

    ~Daemon() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] pid_t pid() const noexcept { return pid_; }
    /// False once the daemon has exited (it is then reaped).
    bool running() {
        if (pid_ <= 0) return false;
        if (::waitpid(pid_, nullptr, WNOHANG) != pid_) return true;
        pid_ = -1;
        return false;
    }

    /// Waits up to `timeout` for the daemon to exit; its exit code, or -1.
    int wait(std::chrono::milliseconds timeout) {
        const std::uint64_t deadline =
            now_ns() + static_cast<std::uint64_t>(timeout.count()) * 1'000'000;
        while (pid_ > 0) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            if (now_ns() > deadline) return -1;
            std::this_thread::sleep_for(2ms);
        }
        return -1;
    }

  private:
    pid_t pid_ = -1;
};

struct OpenLoop {
    std::size_t planned = 0;
    std::size_t answered = 0;
    std::size_t errors = 0;
    std::uint64_t response_bytes = 0;
    std::vector<double> latency_us;
    std::array<std::vector<double>, 4> by_verb_us;
    std::vector<double> late_us;
    std::set<std::uint64_t> versions;
};

/// Phase 1. This thread is the generator: it waits until each request is
/// due, then writes every request already due in one send. A second thread
/// reads responses, which arrive in request order on the one connection.
OpenLoop open_loop(Client& client, RequestMix& mix, double seconds, Tracer* tracer) {
    OpenLoop result;
    const auto count = static_cast<std::size_t>(seconds * kOpenLoopRate);
    result.planned = count;
    std::string wire;
    std::vector<std::size_t> offsets(count + 1);
    std::vector<Verb> verbs(count);
    for (std::size_t i = 0; i < count; ++i) {
        RequestMix::Request request = mix.next();
        verbs[i] = request.verb;
        offsets[i] = wire.size();
        append_frame(wire, request.text);
    }
    offsets[count] = wire.size();

    const std::uint64_t period_ns = static_cast<std::uint64_t>(1e9 / kOpenLoopRate);
    const std::uint64_t first_due = now_ns() + 2'000'000;
    std::vector<std::uint64_t> due(count);
    for (std::size_t i = 0; i < count; ++i) due[i] = first_due + i * period_ns;
    result.late_us.assign(count, 0.0);

    const std::uint32_t parent = tracer != nullptr ? tracer->root() : Tracer::kNone;
    std::jthread reader([&] {
        result.latency_us.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
            std::optional<std::string> response = client.read_frame(5s);
            if (!response) return;
            const std::uint64_t arrived = now_ns();
            const double latency = static_cast<double>(arrived - due[k]) / 1e3;
            ++result.answered;
            result.response_bytes += response->size();
            result.latency_us.push_back(latency);
            result.by_verb_us[static_cast<std::size_t>(verbs[k])].push_back(latency);
            if (!is_ok(*response)) ++result.errors;
            if (verbs[k] == Verb::vendor) result.versions.insert(field_u64(*response, "version="));
            if (tracer != nullptr) tracer->leaf("serve.request", due[k], arrived, parent);
        }
    });

    // Sleep until just before each request is due, then spin: a thread
    // woken from sleep is scheduled ahead of the daemon's census threads
    // when every core is busy, where a thread that only spins is not.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t i = 0; i < count;) {
        if (const std::uint64_t now = now_ns(); due[i] > now + kSpinNs) {
            const std::uint64_t wake = due[i] - kSpinNs;
            const timespec until{static_cast<time_t>(wake / 1'000'000'000),
                                 static_cast<long>(wake % 1'000'000'000)};
            ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr);
        }
        while (now_ns() < due[i]) lfp::util::cpu_relax();
        const std::uint64_t start = now_ns();
        std::size_t end = i + 1;
        while (end < count && due[end] <= start) ++end;
        if (!client.send_all(wire.data() + offsets[i], offsets[end] - offsets[i])) break;
        for (std::size_t k = i; k < end; ++k) {
            result.late_us[k] = static_cast<double>(start - due[k]) / 1e3;
        }
        i = end;
    }
    reader.join();
    return result;
}

/// The daemon's current snapshot version, per STATS.
std::uint64_t current_version(Client& client) {
    const auto stats = client.round_trip("STATS");
    return stats ? field_u64(*stats, " version=") : 0;
}

/// Polls STATS every millisecond until the next census publishes (at most
/// 3 s), so the caller starts right after a publish.
void wait_for_next_publish(Client& client) {
    const std::uint64_t give_up = now_ns() + 3'000'000'000ull;
    const std::uint64_t known = current_version(client);
    while (current_version(client) <= known && now_ns() < give_up) {
        std::this_thread::sleep_for(1ms);
    }
}

struct Cycles {
    std::size_t closed_done = 0;
    std::size_t closed_failed = 0;
    std::uint64_t closed_ns = 0;
    std::uint64_t daemon_cpu_ns = 0;  ///< the daemon's serving thread, closed loop only
    std::vector<double> trigger_ms;
    std::size_t trigger_failed = 0;
};

/// Phases 2 and 3, interleaved with the recurring census. The scheduler
/// starts its next census 500 ms after the previous one published, so each
/// cycle begins right after a publish: a short closed loop runs while no
/// census does, then two TRIGGERs follow; the scheduled census that wakes
/// during the second one waits for it, and the cycle ends when that census
/// publishes. Neither phase shares the daemon with a census it did not ask
/// for, so neither measures where in the schedule it happened to land.
Cycles quiet_cycles(Client& client, RequestMix& mix, const Phases& phases, pid_t daemon,
                    Tracer* tracer) {
    Cycles cycles;
    const auto closed_ns = static_cast<std::uint64_t>(phases.closed_s * 1e9);
    for (int cycle = 0; cycle < phases.cycles; ++cycle) {
        wait_for_next_publish(client);

        const std::uint64_t cpu_before = task_cpu_ns(daemon, daemon);
        const std::uint64_t closed_start = now_ns();
        while (now_ns() - closed_start < closed_ns) {
            const auto response = client.round_trip(mix.next().text, 5s);
            ++cycles.closed_done;
            if (!response || !is_ok(*response)) ++cycles.closed_failed;
            if (!response) return cycles;
        }
        const std::uint64_t closed_end = now_ns();
        cycles.closed_ns += closed_end - closed_start;
        cycles.daemon_cpu_ns += task_cpu_ns(daemon, daemon) - cpu_before;
        if (tracer != nullptr) {
            tracer->leaf("serve.closed_loop", closed_start, closed_end, tracer->root());
        }

        for (int k = 0; k < 2; ++k) {
            const std::uint64_t start = now_ns();
            const auto response = client.round_trip("TRIGGER");
            const std::uint64_t end = now_ns();
            if (!response || !is_ok(*response)) {
                ++cycles.trigger_failed;
                continue;
            }
            cycles.trigger_ms.push_back(static_cast<double>(end - start) / 1e6);
            if (tracer != nullptr) tracer->leaf("serve.trigger", start, end, tracer->root());
        }
    }
    return cycles;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

}  // namespace

RunReport run_serve_workload(const Options& options) {
    const Phases phases = options.smoke ? kSmokePhases : kFullPhases;
    RunReport report;
    report.workload = "serve-socket";
    report.seed = options.seed;
    report.size = static_cast<std::uint64_t>(phases.open_s * kOpenLoopRate);

    std::unique_ptr<Tracer> tracer;
    if (options.traced()) tracer = std::make_unique<Tracer>();
    const std::uint32_t root = tracer ? tracer->open("serve-socket") : Tracer::kNone;
    if (tracer) tracer->set_root(root);

    ServeWorld world;
    RequestMix mix(options.seed, world);

    // --- set-up: spawn until the socket answers --------------------------
    const std::uint64_t spawn_ns = now_ns();
    Daemon daemon(options.serve_bin, {"--socket", kSocketPath, "--scale", std::to_string(kScale),
                                      "--interval-ms", "500"});
    Client client;
    while (!client.connect(kSocketPath)) {
        if (!daemon.running() || now_ns() - spawn_ns > 60'000'000'000ull) {
            throw std::runtime_error("lfp_serve never accepted a connection (see serve.log)");
        }
        std::this_thread::sleep_for(1ms);
    }
    const auto pong = client.round_trip("PING");
    const double setup_s = static_cast<double>(now_ns() - spawn_ns) / 1e9;
    report.check("daemon answers PING", pong && is_ok(*pong));

    // --- phase 1: open loop, from just after a scheduled publish ---------
    wait_for_next_publish(client);
    const std::uint32_t open_span = tracer ? tracer->open("serve.open_loop", root) : Tracer::kNone;
    OpenLoop open = open_loop(client, mix, phases.open_s, tracer.get());
    if (tracer) tracer->close(open_span);

    // --- phases 2 and 3: closed loop and TRIGGERs --------------------------
    const Cycles cycles = quiet_cycles(client, mix, phases, daemon.pid(), tracer.get());

    const auto stats = client.round_trip("STATS");
    const std::uint64_t daemon_records = stats ? field_u64(*stats, " records=") : 0;
    const double daemon_rss_mb = peak_rss_mb(daemon.pid());
    const auto bye = client.round_trip("SHUTDOWN", 5s);
    const int exit_code = daemon.wait(10s);
    report.check("daemon shut down cleanly", bye && is_ok(*bye) && exit_code == 0,
                 "exit code " + std::to_string(exit_code));

    // --- in process: the daemon's census, then its per-request path -------
    lfp::serve::ServiceConfig config;
    config.name = "serve";
    config.asn = [&world](lfp::net::IPv4Address address) -> std::optional<std::uint32_t> {
        const std::size_t index = world.topology.find_by_interface(address);
        if (index == lfp::sim::Topology::npos) return std::nullopt;
        return world.topology.asn_of(index);
    };
    lfp::serve::CensusService service(world.plan(), config);
    lfp::core::CensusRunner& runner = service.runner();
    lfp::serve::SnapshotBuilder builder(
        {.name = config.name, .database = config.database, .classify = config.classify,
         .asn = config.asn});
    lfp::serve::SnapshotStore store;
    const std::uint64_t census_start = now_ns();
    runner.stream_passes(runner.plan().targets, runner.plan().assignment, 0, builder);
    const std::uint64_t build_start = now_ns();
    auto snapshot = builder.build(1, runner.last_pass_stats(), &runner.pool());
    const std::uint64_t publish_start = now_ns();
    store.publish(std::move(snapshot));
    const std::uint64_t publish_end = now_ns();
    if (tracer) {
        tracer->leaf("serve.census", census_start, build_start, root);
        tracer->leaf("serve.build", build_start, publish_start, root);
        tracer->leaf("serve.publish", publish_start, publish_end, root);
    }
    const lfp::serve::QueryEngine engine(store);
    const std::size_t in_process_records = engine.snapshot()->records().size();
    report.check("in-process census matches the daemon's record count",
                 daemon_records != 0 && in_process_records == daemon_records,
                 std::to_string(in_process_records) + " vs STATS records=" +
                     std::to_string(daemon_records));

    RequestMix replay_mix(options.seed, world);
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::string> vendor_requests;
    for (std::size_t i = 0; i < phases.replayed; ++i) {
        RequestMix::Request request = replay_mix.next();
        frames.push_back(lfp::serve::encode_frame(request.text));
        if (request.verb == Verb::vendor) vendor_requests.push_back(std::move(request.text));
    }
    std::size_t replay_errors = 0;
    lfp::serve::FrameDecoder decoder;
    const alloc::Totals allocs_before = alloc::snapshot();
    for (const std::vector<std::uint8_t>& frame : frames) {
        decoder.feed(frame.data(), frame.size());
        const std::optional<std::string> request = decoder.next();
        if (!request) {
            ++replay_errors;
            continue;
        }
        const lfp::serve::RequestOutcome outcome =
            lfp::serve::handle_request(*request, service, engine);
        const std::vector<std::uint8_t> response = lfp::serve::encode_frame(outcome.response);
        if (!is_ok(outcome.response) || response.empty()) ++replay_errors;
    }
    const alloc::Totals allocs_after = alloc::snapshot();
    report.check("in-process replay answered OK", replay_errors == 0,
                 std::to_string(replay_errors) + " errors");

    // --- report -----------------------------------------------------------
    report.attempted =
        open.planned + cycles.closed_done + 2 * static_cast<std::size_t>(phases.cycles);
    report.failed = (open.planned - open.answered) + open.errors + cycles.closed_failed +
                    cycles.trigger_failed;
    const double gen_late_p99 = percentile(open.late_us, 0.99);
    report.check("every answer OK", report.failed == 0,
                 std::to_string(report.failed) + " of " + std::to_string(report.attempted));
    report.validate("at least 2 snapshot versions during the open loop",
                    open.versions.size() >= 2, std::to_string(open.versions.size()) + " versions");
    report.validate("open-loop generator p99 lateness <= 100 us",
                    gen_late_p99 <= kGeneratorLateLimitUs, std::to_string(gen_late_p99) + " us");

    std::vector<double> by_verb_p50(4);
    for (std::size_t v = 0; v < 4; ++v) by_verb_p50[v] = median(open.by_verb_us[v]);
    const auto closed_done = static_cast<double>(cycles.closed_done);
    report.metric("ops_per_s", closed_done * 1e9 / static_cast<double>(cycles.closed_ns));
    report.metric("cpu_us_per_op",
                  ratio(static_cast<double>(cycles.daemon_cpu_ns) / 1e3, closed_done));
    report.metric("allocs_per_op", static_cast<double>(allocs_after.total - allocs_before.total) /
                                       static_cast<double>(frames.size()));
    report.metric("peak_rss_mb", daemon_rss_mb);
    report.metric("setup_s", setup_s);
    report.metric("p50_us", percentile(open.latency_us, 0.50));
    report.metric("p90_us", percentile(open.latency_us, 0.90));
    report.metric("refresh_ms", median(cycles.trigger_ms));

    if (tracer) {
        for (std::size_t v = 0; v < 4; ++v) {
            report.layer(std::string("serve.") + kVerbNames[v] + "_p50_us", by_verb_p50[v]);
        }
        report.layer("serve.p99_us", percentile(open.latency_us, 0.99));
        report.layer("serve.resp_bytes_per_req", ratio(static_cast<double>(open.response_bytes),
                                                       static_cast<double>(open.answered)));
        std::vector<lfp::net::IPv4Address> vendor_addresses;
        for (const std::string& text : vendor_requests) {
            vendor_addresses.push_back(
                lfp::net::IPv4Address::parse(std::string_view(text).substr(7)).value());
        }
        std::size_t known = 0;
        const std::uint64_t query_start = now_ns();
        for (const lfp::net::IPv4Address address : vendor_addresses) {
            known += engine.vendor_of(address).known ? 1 : 0;
        }
        const std::uint64_t handle_start = now_ns();
        for (const std::string& text : vendor_requests) {
            (void)lfp::serve::handle_request(text, service, engine);
        }
        const std::uint64_t handle_end = now_ns();
        const auto vendors = static_cast<double>(vendor_requests.size());
        report.check("every replayed VENDOR target is known", known == vendor_requests.size());
        report.layer("serve.query_vendor_ns",
                     ratio(static_cast<double>(handle_start - query_start), vendors));
        report.layer("serve.handle_vendor_ns",
                     ratio(static_cast<double>(handle_end - handle_start), vendors));
        report.layer("serve.census_s", static_cast<double>(build_start - census_start) / 1e9);
        report.layer("serve.build_s", static_cast<double>(publish_start - build_start) / 1e9);
        report.layer("serve.publish_s", static_cast<double>(publish_end - publish_start) / 1e9);
        report.layer("serve.versions_seen", static_cast<double>(open.versions.size()));
        report.layer("serve.gen_late_p99_us", gen_late_p99);
        tracer->close(root);
        report.check("trace written", tracer->write_chrome_json(options.trace_file),
                     options.trace_file);
    }
    return report;
}

}  // namespace lfpbench

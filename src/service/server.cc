#include "src/service/server.h"

#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/driver/build_graph.h"
#include "src/driver/confcc.h"
#include "src/driver/pipeline.h"
#include "src/isa/binary.h"
#include "src/isa/isa.h"
#include "src/support/fault_injection.h"
#include "src/support/strings.h"
#include "src/vm/vm.h"

namespace confllvm {

namespace {

Json StageRows(const PipelineStats& ps) {
  Json rows = Json::Array();
  for (const StageStats& s : ps.stages) {
    Json row = Json::Object();
    row.Set("name", Json::Str(s.name));
    row.Set("ms", Json::Double(s.ms));
    row.Set("cached", Json::Bool(s.cached));
    row.Set("ok", Json::Bool(s.ok));
    rows.Append(std::move(row));
  }
  return rows;
}

// {"status": status}, plus the `error` message when one is given.
Json Response(const char* status, const std::string& error = "") {
  Json resp = Json::Object();
  resp.Set("status", Json::Str(status));
  if (!error.empty()) {
    resp.Set("error", Json::Str(error));
  }
  return resp;
}

// Echoes the request's correlation id (any JSON kind) into the response.
void EchoId(const Json& req, Json* resp) {
  const Json* id = req.is_object() ? req.Find("id") : nullptr;
  if (id != nullptr) {
    resp->Set("id", *id);
  }
}

}  // namespace

Json ConfccdServer::ServerStats::ToJson() const {
  Json j = Json::Object();
  j.Set("connections_accepted", Json::UInt(connections_accepted));
  j.Set("connections_dropped_inject", Json::UInt(connections_dropped_inject));
  j.Set("connections_closed", Json::UInt(connections_closed));
  j.Set("bad_frames", Json::UInt(bad_frames));
  j.Set("bad_requests", Json::UInt(bad_requests));
  j.Set("requests", Json::UInt(requests));
  j.Set("responses_dropped", Json::UInt(responses_dropped));
  j.Set("injected_read_faults", Json::UInt(injected_read_faults));
  j.Set("injected_dispatch_faults", Json::UInt(injected_dispatch_faults));
  return j;
}

ConfccdServer::ConfccdServer(Options opts)
    : opts_(std::move(opts)), cache_(opts_.cache_bytes), sched_(opts_.sched) {}

ConfccdServer::~ConfccdServer() { Stop(); }

ConfccdServer::Connection::~Connection() {
  if (fd >= 0) {
    ::close(fd);
  }
}

bool ConfccdServer::Start(std::string* err) {
  if (!opts_.cache_dir.empty() &&
      !cache_.AttachDiskTier({opts_.cache_dir, opts_.cache_disk_bytes})) {
    *err = "cannot create cache dir " + opts_.cache_dir;
    return false;
  }

  sockaddr_un addr;
  memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.empty() ||
      opts_.socket_path.size() >= sizeof addr.sun_path) {
    *err = "socket path empty or too long: '" + opts_.socket_path + "'";
    return false;
  }
  memcpy(addr.sun_path, opts_.socket_path.c_str(), opts_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *err = StrFormat("socket: %s", strerror(errno));
    return false;
  }
  // A stale socket file from a dead daemon would fail the bind; remove it.
  ::unlink(opts_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    *err = StrFormat("bind/listen %s: %s", opts_.socket_path.c_str(),
                     strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  sched_.Start();
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void ConfccdServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void ConfccdServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void ConfccdServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  running_.store(false);

  // 1. Stop accepting: shutting the listener down unblocks accept().
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain the worker pool while connections are still writable, so
  // accepted requests get their responses before the teardown severs peers.
  sched_.Stop();

  // 3. Sever every connection (unblocks readers) and join the readers. The
  // fds themselves close when the last shared_ptr drops (~Connection).
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
    readers.swap(readers_);
  }
  for (const auto& conn : conns) {
    conn->open.store(false);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (std::thread& t : readers) {
    t.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  conns.clear();

  ::unlink(opts_.socket_path.c_str());
  RequestShutdown();  // release any WaitForShutdown caller
}

ConfccdServer::ServerStats ConfccdServer::server_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void ConfccdServer::Count(uint64_t ServerStats::*counter) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++(stats_.*counter);
}

void ConfccdServer::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener shut down
    }
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    if (InjectFault("service.accept")) {
      // Chaos: the connection is dropped on the floor right after accept —
      // the client sees ECONNRESET/EOF and retries against a healthy daemon.
      Count(&ServerStats::connections_dropped_inject);
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->default_client =
        StrFormat("conn-%llu", static_cast<unsigned long long>(
                                   next_conn_id_.fetch_add(1)));
    Count(&ServerStats::connections_accepted);
    ReapFinishedReaders();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { ReaderLoop(conn); });
  }
}

void ConfccdServer::ReapFinishedReaders() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::thread::id id : finished_readers_) {
      for (size_t i = 0; i < readers_.size(); ++i) {
        if (readers_[i].get_id() == id) {
          done.push_back(std::move(readers_[i]));
          readers_.erase(readers_.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
    }
    finished_readers_.clear();
  }
  // A finished reader has at most its return left to run; join outside the
  // lock all the same.
  for (std::thread& t : done) {
    t.join();
  }
}

void ConfccdServer::SendResponse(const std::shared_ptr<Connection>& conn,
                                 const Json& resp) {
  const std::string payload = resp.Dump();
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load() || !WriteFrame(conn->fd, payload)) {
    // Peer vanished (killed client): the response is dropped, nothing else
    // in the daemon is affected.
    conn->open.store(false);
    Count(&ServerStats::responses_dropped);
  }
}

void ConfccdServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  while (running_.load() && conn->open.load()) {
    std::string payload;
    const FrameRead fr = ReadFrame(conn->fd, &payload, opts_.max_frame_bytes);
    if (fr != FrameRead::kOk) {
      // A clean EOF between frames is the normal goodbye; a torn or
      // oversized frame is counted. Either way this connection is done.
      if (fr == FrameRead::kBad && conn->open.load() && running_.load()) {
        Count(&ServerStats::bad_frames);
      }
      break;
    }
    if (InjectFault("service.read")) {
      // Chaos: sever the connection mid-stream, as if the kernel returned
      // ECONNRESET. Any in-flight work for this peer completes and its
      // response is dropped at send time.
      Count(&ServerStats::injected_read_faults);
      break;
    }

    Json req;
    std::string perr;
    if (!Json::Parse(payload, &req, &perr) || !req.is_object()) {
      // A well-framed but malformed request fails that request only; the
      // connection (and any pipelined frames behind it) lives on.
      Count(&ServerStats::bad_requests);
      SendResponse(conn, Response("error", perr.empty()
                                               ? "request is not a JSON object"
                                               : "bad JSON: " + perr));
      continue;
    }
    Count(&ServerStats::requests);

    const std::string verb = req.GetString("verb");
    if (verb == "compile" || verb == "link" || verb == "execute") {
      const std::string client = req.GetString("client", conn->default_client);
      auto task = [this, conn, req]() {
        Json resp;
        if (InjectFault("service.dispatch")) {
          // Chaos: a dispatched request fails transiently. Retryable by
          // contract — the work was never attempted, the cache untouched.
          Count(&ServerStats::injected_dispatch_faults);
          resp = Response("retry", "injected dispatch fault");
        } else {
          try {
            resp = Handle(req);
          } catch (const std::exception& e) {
            resp = Response("error", StrFormat("internal error: %s", e.what()));
          } catch (...) {
            resp = Response("error", "internal error");
          }
        }
        EchoId(req, &resp);
        SendResponse(conn, resp);
      };
      const ServeScheduler::Admit admit = sched_.Submit(client, std::move(task));
      if (admit != ServeScheduler::Admit::kAccepted) {
        Json resp;
        switch (admit) {
          case ServeScheduler::Admit::kQueueFull:
            resp = Response("retry", "server queue full");
            break;
          case ServeScheduler::Admit::kClientSaturated:
            resp = Response("retry", "client in-flight cap reached");
            break;
          default:
            resp = Response("error", "server shutting down");
            break;
        }
        EchoId(req, &resp);
        SendResponse(conn, resp);
      }
      continue;
    }

    // Control verbs answer inline on the reader thread — they never compete
    // with compile work for pool slots.
    Json resp = Handle(req);
    EchoId(req, &resp);
    SendResponse(conn, resp);
    if (verb == "shutdown") {
      RequestShutdown();
      break;
    }
  }
  conn->open.store(false);
  ::shutdown(conn->fd, SHUT_RDWR);
  Count(&ServerStats::connections_closed);
  // Drop this reader's registration so the fd can close as soon as any
  // in-flight worker task releases its reference, and queue the thread for
  // the next accept to join.
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == conn) {
      conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  finished_readers_.push_back(std::this_thread::get_id());
}

Json ConfccdServer::Handle(const Json& req) {
  const std::string verb = req.GetString("verb");
  if (verb == "ping") {
    Json resp = Response("ok");
    resp.Set("pong", Json::Bool(true));
    return resp;
  }
  if (verb == "stats") {
    return HandleStats();
  }
  if (verb == "shutdown") {
    Json resp = Response("ok");
    resp.Set("stopping", Json::Bool(true));
    return resp;
  }
  if (verb == "compile") {
    return HandleCompile(req);
  }
  if (verb == "link") {
    return HandleLink(req);
  }
  if (verb == "execute") {
    return HandleExecute(req);
  }
  return Response("error", verb.empty() ? "missing verb"
                                         : "unknown verb '" + verb + "'");
}

Json ConfccdServer::HandleStats() {
  Json resp = Response("ok");
  // One coherent snapshot per tier, same discipline as confcc
  // --cache-stats: row and JSON render the same numbers.
  const CacheStats cs = cache_.stats();
  resp.Set("cache_row", Json::Str(cs.ToRow()));
  resp.Set("cache_json", Json::Str(cs.ToJson().Dump()));
  resp.Set("sched_json", Json::Str(sched_.stats().ToJson().Dump()));
  resp.Set("server_json", Json::Str(server_stats().ToJson().Dump()));
  return resp;
}

Json ConfccdServer::Build(const Json& req, const Json* modules,
                          std::unique_ptr<CompiledProgram>* out) {
  if (modules != nullptr &&
      (!modules->is_array() || modules->items().empty())) {
    return Response("error", "link: missing modules");
  }
  BuildPreset preset = BuildPreset::kOurMpx;
  const std::string preset_name = req.GetString("preset");
  if (!preset_name.empty() && !ParsePresetName(preset_name, &preset)) {
    return Response("error", "unknown preset '" + preset_name + "'");
  }
  const BuildConfig config =
      BuildConfig::ForWholeProgram(preset, req.GetBool("all_private"));
  const bool verify = req.GetBool("verify") && WantsVerify(config);

  Json resp;
  if (modules != nullptr) {
    DiagEngine gdiags;
    BuildGraph graph;
    for (const Json& m : modules->items()) {
      const std::string name = m.GetString("name");
      const std::string source = m.GetString("source");
      if (name.empty() || source.empty()) {
        return Response("error", "link: every module needs name and source");
      }
      if (!graph.AddModule(name, source, &gdiags)) {
        return Response("error", "link: " + gdiags.ToString());
      }
    }
    if (!graph.Finalize(config, &gdiags, &cache_, opts_.build_jobs)) {
      resp = Response("error", "link: graph finalize failed");
      resp.Set("diagnostics", Json::Str(gdiags.ToString()));
      return resp;
    }
    BuildScheduler::Options sopts;
    sopts.num_workers = opts_.build_jobs;
    sopts.verify = verify;
    sopts.deadline_ms = opts_.compile_deadline_ms;
    LinkedBuild build = BuildScheduler(&graph, config, sopts).Run(&cache_);
    resp = build.ok ? Response("ok") : Response("error", "link failed");
    // A failed module's own errors are in build.diags, under its name.
    resp.Set("diagnostics", Json::Str(build.diags.ToString()));
    resp.Set("graph_json", Json::Str(build.stats.ToJson().Dump()));
    resp.Set("link_cached", Json::Bool(build.stats.link_cached));
    if (build.ok) {
      *out = std::make_unique<CompiledProgram>();
      (*out)->config = config;
      (*out)->prog = std::move(build.prog);
    }
  } else {
    CompilerInvocation inv(req.GetString("source"), config);
    inv.set_cache(&cache_);
    inv.set_deadline_ms(opts_.compile_deadline_ms);
    const bool ok = RunStandardPipeline(&inv, verify);
    resp = ok ? Response("ok") : Response("error", "compilation failed");
    resp.Set("diagnostics", Json::Str(inv.diags().ToString()));
    resp.Set("stages", StageRows(inv.stats()));
    resp.Set("total_ms", Json::Double(inv.stats().total_ms));
    if (ok) {
      *out = inv.TakeProgram();
    }
  }
  if (*out != nullptr && req.GetBool("want_bin")) {
    resp.Set("bin_hex",
             Json::Str(HexEncode(SerializeBinary((*out)->prog->binary))));
  }
  return resp;
}

Json ConfccdServer::HandleCompile(const Json& req) {
  if (req.GetString("source").empty()) {
    return Response("error", "compile: missing source");
  }
  std::unique_ptr<CompiledProgram> compiled;
  Json resp = Build(req, nullptr, &compiled);
  if (compiled != nullptr) {
    resp.Set("code_words", Json::UInt(compiled->prog->binary.code.size()));
    resp.Set("functions", Json::UInt(compiled->prog->binary.functions.size()));
  }
  return resp;
}

Json ConfccdServer::HandleLink(const Json& req) {
  const Json* modules = req.Find("modules");
  if (modules == nullptr) {
    return Response("error", "link: missing modules");
  }
  std::unique_ptr<CompiledProgram> compiled;
  return Build(req, modules, &compiled);
}

Json ConfccdServer::HandleExecute(const Json& req) {
  const Json* modules = req.Find("modules");
  if (modules == nullptr && req.GetString("source").empty()) {
    return Response("error", "execute: missing source or modules");
  }
  std::unique_ptr<CompiledProgram> compiled;
  Json resp = Build(req, modules, &compiled);
  if (compiled == nullptr) {
    return resp;
  }

  VmOptions vm_opts;
  const std::string engine = req.GetString("engine");
  if (!engine.empty() && !ParseEngineName(engine, &vm_opts.engine)) {
    return Response("error", "unknown engine '" + engine + "'");
  }
  // The ABI passes at most kNumArgRegs arguments, each one 64-bit register.
  std::vector<uint64_t> args;
  if (const Json* ja = req.Find("args"); ja != nullptr) {
    const std::string bad_args = StrFormat(
        "execute: args must be an array of at most %zu unsigned integers",
        static_cast<size_t>(kNumArgRegs));
    if (!ja->is_array() || ja->items().size() > kNumArgRegs) {
      return Response("error", bad_args);
    }
    for (const Json& a : ja->items()) {
      if (a.kind() != Json::Kind::kUInt) {
        return Response("error", bad_args);
      }
      args.push_back(a.AsUInt());
    }
  }
  const uint64_t tt = req.GetUInt("trace_threshold");
  if (tt != 0) {
    vm_opts.trace_threshold = tt;
  }
  // The watchdog always arms: a request may tighten the deadline but never
  // exceed the server's ceiling — one tenant's loop cannot wedge a worker.
  uint64_t deadline = req.GetUInt("deadline_ms", opts_.default_deadline_ms);
  if (deadline == 0 || deadline > opts_.max_deadline_ms) {
    deadline = opts_.max_deadline_ms;
  }
  vm_opts.deadline_ms = deadline;

  auto session = MakeSessionFor(std::move(compiled), vm_opts);
  const Vm::CallResult r =
      session->vm->Call(req.GetString("entry", "main"), args);

  resp.Set("ran_ok", Json::Bool(r.ok));
  resp.Set("ret", Json::UInt(r.ret));
  resp.Set("cycles", Json::UInt(r.cycles));
  resp.Set("instrs", Json::UInt(r.instrs));
  if (!r.ok) {
    resp.Set("fault", Json::Str(FaultName(r.fault)));
    resp.Set("fault_msg", Json::Str(r.fault_msg));
  }
  resp.Set("guest_stdout", Json::Str(session->tlib->stdout_text()));
  return resp;
}

}  // namespace confllvm

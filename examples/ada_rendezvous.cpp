// An Ada-task-style runtime layered purely on the public fsup API — the paper's motivating
// application ("has been used successfully ... to implement an Ada runtime system on top of
// Pthreads ... the overhead of layering a runtime system on top of Pthreads is not
// prohibitive").
//
// The demo builds the two Ada tasking primitives that map directly onto Pthreads:
//
//   * entry/accept rendezvous  — caller and acceptor synchronize; the entry body runs in the
//     acceptor while the caller is suspended; results flow back to the caller.
//   * exception-on-signal      — a synchronous "signal" is turned into an unwound exception
//     using pt_handler_redirect, the implementation-defined hook the paper added for Ada.

#include <csetjmp>
#include <csignal>
#include <cstdio>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"

namespace {

using namespace fsup;

// ---------------------------------------------------------------------------------------
// A single-entry Ada task: "task Server is entry Compute(X : in Integer; Y : out Integer)".
// ---------------------------------------------------------------------------------------

class EntryPoint {
 public:
  EntryPoint() {
    pt_mutex_init(&m_);
    pt_cond_init(&call_present_);
    pt_cond_init(&call_done_);
  }
  ~EntryPoint() {
    pt_cond_destroy(&call_done_);
    pt_cond_destroy(&call_present_);
    pt_mutex_destroy(&m_);
  }

  // Caller side ("Server.Compute(x, y)"): blocks until the acceptor completes the body.
  int Call(int x) {
    pt_mutex_lock(&m_);
    while (state_ != State::kIdle) {
      pt_cond_wait(&call_done_, &m_);  // another caller is in rendezvous
    }
    in_ = x;
    state_ = State::kCallWaiting;
    pt_cond_signal(&call_present_);
    while (state_ != State::kCompleted) {
      pt_cond_wait(&call_done_, &m_);
    }
    const int result = out_;
    state_ = State::kIdle;
    pt_cond_broadcast(&call_done_);  // admit the next caller
    pt_mutex_unlock(&m_);
    return result;
  }

  // Acceptor side ("accept Compute(X, Y) do ... end"): body runs at rendezvous.
  template <typename Body>
  void Accept(Body&& body) {
    pt_mutex_lock(&m_);
    while (state_ != State::kCallWaiting) {
      pt_cond_wait(&call_present_, &m_);
    }
    out_ = body(in_);
    state_ = State::kCompleted;
    pt_cond_broadcast(&call_done_);
    pt_mutex_unlock(&m_);
  }

 private:
  enum class State { kIdle, kCallWaiting, kCompleted };
  pt_mutex_t m_;
  pt_cond_t call_present_;
  pt_cond_t call_done_;
  State state_ = State::kIdle;
  int in_ = 0;
  int out_ = 0;
};

EntryPoint g_compute;

void* ServerTask(void* rounds_p) {
  const auto rounds = reinterpret_cast<intptr_t>(rounds_p);
  for (intptr_t i = 0; i < rounds; ++i) {
    g_compute.Accept([](int x) { return x * x + 1; });
  }
  return nullptr;
}

// ---------------------------------------------------------------------------------------
// Constraint_Error on SIGFPE: the Ada exception propagation path via pt_handler_redirect.
// ---------------------------------------------------------------------------------------

sigjmp_buf g_exception_frame;

void FpeToException(int) {
  // "When a synchronous signal is received, one needs to return from the user handler and
  // restore the previous frame before propagating the exception" — redirect control to the
  // recovery frame instead of re-executing the faulting instruction.
  pt_handler_redirect(&g_exception_frame, 1);
}

// The division by zero is the point: the hardware trap is the "exception". Exempt from the
// undefined-behaviour sanitizer, which would otherwise report it instead of letting SIGFPE
// reach the handler.
__attribute__((no_sanitize("undefined"))) int DivideChecked(int num, int den,
                                                            bool* constraint_error) {
  *constraint_error = false;
  if (sigsetjmp(g_exception_frame, 1) != 0) {
    *constraint_error = true;  // "exception Constraint_Error"
    return 0;
  }
  volatile int n = num, d = den;
  return n / d;  // SIGFPE when d == 0 → handler → redirect → the sigsetjmp above
}

}  // namespace

int main() {
  pt_init();

  // Rendezvous demo: three client tasks call the server's entry.
  constexpr intptr_t kCallsPerClient = 4;
  pt_thread_t server;
  pt_create(&server, nullptr, &ServerTask, reinterpret_cast<void*>(3 * kCallsPerClient));

  struct Client {
    int id;
    long sum = 0;
  } clients[3] = {{1}, {2}, {3}};
  auto client_body = +[](void* cp) -> void* {
    auto* c = static_cast<Client*>(cp);
    for (intptr_t i = 0; i < kCallsPerClient; ++i) {
      c->sum += g_compute.Call(c->id * 10 + static_cast<int>(i));
    }
    return nullptr;
  };
  pt_thread_t cts[3];
  for (int i = 0; i < 3; ++i) {
    pt_create(&cts[i], nullptr, client_body, &clients[i]);
  }
  for (auto& t : cts) {
    pt_join(t, nullptr);
  }
  pt_join(server, nullptr);
  std::printf("rendezvous sums: %ld %ld %ld\n", clients[0].sum, clients[1].sum,
              clients[2].sum);

  // Exception demo.
  pt_sigaction(SIGFPE, &FpeToException, 0);
  bool constraint_error = false;
  const int ok = DivideChecked(42, 6, &constraint_error);
  std::printf("42 / 6 = %d (constraint_error=%d)\n", ok, constraint_error);
  DivideChecked(1, 0, &constraint_error);
  std::printf("1 / 0 -> constraint_error=%d (signal became an exception)\n", constraint_error);
  return constraint_error ? 0 : 1;
}

/// \file
/// The two load generators: an open loop that sends on a fixed schedule
/// whatever the state of earlier requests, and a closed loop that keeps a
/// fixed window of requests outstanding.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Send `n` requests at `rate` per second from the calling thread to
/// `workers` worker threads. `serve(worker, i, due_s)` runs request i on a
/// worker and returns its sample with start_s, done_s and ok filled; it
/// must not throw. The returned samples carry each request's due time, so latency
/// is measured from when it was due and a stall charges every request
/// queued behind it. A request no worker took keeps done_s == 0.
template <typename Serve>
std::vector<OpenLoopSample> run_open_loop(std::size_t n, double rate, unsigned workers,
                                          Serve&& serve) {
    struct Due {
        std::size_t i;
        double due;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Due> queue;
    bool closed = false;
    std::vector<OpenLoopSample> samples(n);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            for (;;) {
                Due job{};
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return closed || !queue.empty(); });
                    if (queue.empty()) return;
                    job = queue.front();
                    queue.pop_front();
                }
                OpenLoopSample s = serve(w, job.i, job.due);
                s.due_s = job.due;
                samples[job.i] = s;
            }
        });
    }
    const OpenLoopSchedule sched{now_s() + 0.01, rate};
    for (std::size_t i = 0; i < n; ++i) {
        const double due = sched.due(i);
        const double wait = due - now_s();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        {
            std::lock_guard<std::mutex> lock(mu);
            queue.push_back({i, due});
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
    }
    cv.notify_all();
    for (auto& t : pool) t.join();
    return samples;
}

/// Run `n` requests with `window` outstanding: each of `window` worker
/// threads sends its next request as soon as `serve(worker, i)` returns.
/// `serve` must not throw. Returns the wall time in seconds.
template <typename Serve>
double run_closed_loop(std::size_t n, unsigned window, Serve&& serve) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    const double start = now_s();
    for (unsigned w = 0; w < window; ++w) {
        pool.emplace_back([&, w] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;) serve(w, i);
        });
    }
    for (auto& t : pool) t.join();
    return now_s() - start;
}

}  // namespace perfbench

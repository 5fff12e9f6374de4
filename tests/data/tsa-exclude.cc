// Clang thread-safety fixture: calling a MORPH_EXCLUDES function
// while the excluded mutex is held (the callee would self-deadlock
// re-acquiring it). `clang++ -Wthread-safety
// -Werror=thread-safety-analysis` must reject this file; GCC, where
// the annotations expand to nothing, compiles it.
#include "common/mutex.hh"

class Queue
{
  public:
    void
    pump()
    {
        morph::LockGuard guard(mu_);
        drain(); // drain() takes mu_ itself: deadlock
    }

  private:
    void
    drain() MORPH_EXCLUDES(mu_)
    {
        morph::LockGuard guard(mu_);
    }

    morph::Mutex mu_;
};

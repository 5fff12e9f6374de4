// Clang thread-safety fixture: calling a MORPH_REQUIRES function
// without the required mutex held. `clang++ -Wthread-safety
// -Werror=thread-safety-analysis` must reject this file; GCC, where
// the annotations expand to nothing, compiles it.
#include "common/mutex.hh"

class Queue
{
  public:
    void
    tick()
    {
        flushLocked(); // caller never takes mu_
    }

  private:
    void
    flushLocked() MORPH_REQUIRES(mu_)
    {
        pending_ = 0;
    }

    morph::Mutex mu_;
    unsigned pending_ MORPH_GUARDED_BY(mu_) = 0;
};

// Clang thread-safety fixture: touching a MORPH_GUARDED_BY member
// without its mutex held. `clang++ -Wthread-safety
// -Werror=thread-safety-analysis` must reject this file; GCC, where
// the annotations expand to nothing, compiles it.
#include "common/mutex.hh"

class Counter
{
  public:
    void
    bump()
    {
        ++hits_; // no lock taken: the annotation says mu_ must be held
    }

  private:
    morph::Mutex mu_;
    unsigned hits_ MORPH_GUARDED_BY(mu_) = 0;
};

// morphrace fixture: two classes declare a member of the same name and
// only one guards it. Each class's own accesses are judged by its own
// declaration, so this file is clean. Analyzed, never compiled.
#define MORPH_GUARDED_BY(mu)

class Pool
{
  public:
    void
    submit()
    {
        LockGuard guard(lock_);
        ++pending_; // Pool::pending_ is guarded, and lock_ is held
    }

  private:
    Mutex lock_;
    unsigned pending_ MORPH_GUARDED_BY(lock_) = 0;
};

class Batch
{
  public:
    void add();

  private:
    unsigned pending_ = 0; // single-threaded scratch, no lock
};

void
Batch::add()
{
    ++pending_; // Batch::pending_ carries no guard
}

// morphflow fixture: code every rule family runs over and none flags.
// The exit-0 pin of the static-analysis exit-code contract. Analyzed,
// never compiled.
#define MORPH_GUARDED_BY(mu)
#define MORPH_SHARD_LOCAL

class Tally
{
  public:
    void
    bump()
    {
        LockGuard guard(mu_);
        ++hits_;
    }

  private:
    static constexpr unsigned kLimit = 1024;

    Mutex mu_;
    unsigned hits_ MORPH_GUARDED_BY(mu_) = 0;
    unsigned scratch_ MORPH_SHARD_LOCAL = 0;
};

void
fill(RunPool &pool, std::size_t count, std::vector<double> &out)
{
    pool.forEach(count, [&](std::size_t i) {
        out[i] = static_cast<double>(i); // index-addressed store
    });
}

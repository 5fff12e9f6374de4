// morphflow fixture: a RunPool worker lambda mutating captured outer
// state without a lock, atomic, or index-addressed store must trip
// the race-worker-escape rule. Analyzed, never compiled.

double
sumAll(RunPool &pool, std::size_t count,
       const std::vector<double> &values)
{
    double sum = 0.0;
    pool.forEach(count, [&](std::size_t i) {
        sum += values[i]; // racy read-modify-write across workers
    });
    return sum;
}

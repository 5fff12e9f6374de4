// morphflow fixture: mutable static state with no concurrency
// annotation (not const, not thread_local, not atomic) must trip the
// race-naked-static rule, both at namespace scope and function-local.
// Analyzed, never compiled.

static unsigned g_hits = 0;

unsigned
nextId()
{
    static unsigned counter = 0;
    return ++counter;
}

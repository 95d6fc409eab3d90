// Function attributes carrying project-invariant contracts.
//
// ANUFS_HOT marks the request-path functions whose invariants the
// static checker (tools/anufs_lint.py, rule H1) enforces: a hot
// function must not — transitively, through the project call graph —
// allocate (new/malloc, node-based containers, std::string building),
// throw, or do I/O. The marker doubles as a real compiler hint
// (__attribute__((hot)) biases inlining and code placement).
//
// ANUFS_COLD marks the explicit slow paths reachable FROM hot code
// (pool growth, the tuner's full recompute): the H1 traversal stops at
// a cold boundary, and the compiler moves the cold body out of the hot
// text. Marking a function cold is an auditable claim that it runs off
// the steady-state path — make it in the same commit that explains why.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define ANUFS_HOT __attribute__((hot))
#define ANUFS_COLD __attribute__((cold))
#else
#define ANUFS_HOT
#define ANUFS_COLD
#endif

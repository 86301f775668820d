package dispatch

import "spin/internal/stripe"

// stripedCounter is the dispatcher's statistics counter, sharded across
// cache-line-padded cells; see internal/stripe. It lives in its own package
// so the code generator's executors can add a raise's firings to the
// event's total (codegen.Env.FiredTotal) on the raise's one hoisted shard
// index.
type stripedCounter = stripe.Counter

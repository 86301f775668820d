package dispatch

import "spin/internal/stripe"

// stripedCounter is the dispatcher's statistics counter, sharded across
// cache-line-padded cells; see internal/stripe. It lives in its own package
// so the code generator's executors can add a raise's firings beyond one to
// the event's fired excess (codegen.Env.FiredExcess) on the raise's one
// hoisted shard index. A raise counts itself in the raised total first, so
// the fired total is raised + excess and a raise that fires one handler
// makes one shared write.
type stripedCounter = stripe.Counter

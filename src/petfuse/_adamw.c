/* The AdamW update of petfuse.training as one pass over p, m, v and g.

   Each element goes through the numpy block plan's sequence of operations,
   in its order, each rounded once to float64:

       p = p*shrink;  m = m*b1 + g;  v = v*b2 + g*g;
       p = p - (m*alpha) / (sqrt(v) + eps)

   so with FLT_EVAL_METHOD 0, no contraction into fused multiply-adds
   (-ffp-contract=off) and a correctly rounded sqrt, p, m and v come out as
   the same bits the numpy plan writes. training.py compiles this file with
   Python's own C compiler and loads it through ctypes.

   Returns the floating-point flags the call raised, as a bit set numpy's
   error state can be applied to: 1 divide by zero, 2 overflow, 4 invalid. */

#include <fenv.h>
#include <math.h>
#include <stddef.h>

int adamw_update(double *restrict p, double *restrict m, double *restrict v,
                 const double *restrict g, size_t n, double shrink, double b1,
                 double b2, double eps, double alpha)
{
    feclearexcept(FE_DIVBYZERO | FE_OVERFLOW | FE_INVALID);
    for (size_t i = 0; i < n; i++) {
        double gi = g[i];
        double pi = p[i] * shrink;
        double mi = m[i] * b1 + gi;
        double vi = v[i] * b2 + gi * gi;
        m[i] = mi;
        v[i] = vi;
        p[i] = pi - (mi * alpha) / (sqrt(vi) + eps);
    }
    int raised = fetestexcept(FE_DIVBYZERO | FE_OVERFLOW | FE_INVALID);
    return (raised & FE_DIVBYZERO ? 1 : 0) | (raised & FE_OVERFLOW ? 2 : 0)
           | (raised & FE_INVALID ? 4 : 0);
}

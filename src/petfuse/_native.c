/* petfuse's native library: the fused AdamW update of petfuse.training and
   the manifest row reader and writer of petfuse.data. _native.py compiles
   this file with Python's own C compiler and loads it through ctypes; each
   caller keeps a pure-Python path, which gives the same bits or bytes, for
   a host where it cannot be built or loaded. */

#include <float.h>
#include <fenv.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The AdamW update as one pass over p, m, v and g.

   Each element goes through the numpy block plan's sequence of operations,
   in its order, each rounded once to float64:

       p = p*shrink;  m = m*b1 + g;  v = v*b2 + g*g;
       p = p - (m*alpha) / (sqrt(v) + eps)

   so with FLT_EVAL_METHOD 0, no contraction into fused multiply-adds
   (-ffp-contract=off) and a correctly rounded sqrt, p, m and v come out as
   the same bits the numpy plan writes.

   Returns the floating-point flags the call raised, as a bit set numpy's
   error state can be applied to: 1 divide by zero, 2 overflow, 4 invalid. */
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

/* Every power of ten that is an exact double. */
static const double POW10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};
#define MAX_POW10 22
/* 10**15 - 1 < 2**53: up to 15 significant digits are an exact double. */
#define MAX_DIGITS 15

static int json_space(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

static int digit(const char *s, size_t n, size_t i)
{
    return i < n && s[i] >= '0' && s[i] <= '9';
}

/* The numbers of s[0..n), which must be `ws num ws (, ws num ws)*` with ws
   JSON's whitespace and num a JSON number, written to out; returns how
   many, or -1 where s is anything else, holds more than cap numbers, or
   holds a number the fast path below cannot read.

   A number of w significant digits (w <= 15) times 10**e (|e| <= 22) is
   read as the exact double w times, or divided by, the exact double 10**|e|
   (Clinger, "How to Read Floating Point Numbers Accurately", PLDI 1990). The
   one correctly rounded operation gives the double nearest the decimal,
   which is what Python's float() of its text gives. A token without a
   fraction or an exponent is an integer, as json reads it, so "-0" is +0.0;
   "-0.0" is -0.0. */
ptrdiff_t parse_numbers(const char *s, size_t n, double *out, size_t cap)
{
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
    return -1;  /* an extended intermediate would round twice */
#endif
    size_t i = 0, count = 0;
    for (;;) {
        while (i < n && json_space(s[i]))
            i++;
        int negative = i < n && s[i] == '-';
        i += negative;
        if (!digit(s, n, i))
            return -1;
        uint64_t w = 0;
        int digits = 0, integer = 1;
        long scale = 0;
        if (s[i] == '0')
            i++;  /* a zero integer part is "0" alone: "01" fails below */
        else
            for (; digit(s, n, i); i++) {
                if (digits == MAX_DIGITS)
                    return -1;
                w = w * 10 + (uint64_t)(s[i] - '0');
                digits++;
            }
        if (i < n && s[i] == '.') {
            integer = 0;
            if (!digit(s, n, ++i))
                return -1;
            for (; digit(s, n, i); i++) {
                scale--;
                if (w == 0 && s[i] == '0')
                    continue;  /* not significant */
                /* so a non-zero value never needs an exponent above 44 */
                if (digits == MAX_DIGITS || scale < -MAX_POW10)
                    return -1;
                w = w * 10 + (uint64_t)(s[i] - '0');
                digits++;
            }
        }
        if (i < n && (s[i] == 'e' || s[i] == 'E')) {
            integer = 0;
            i++;
            int minus = i < n && s[i] == '-';
            i += i < n && (s[i] == '-' || s[i] == '+');
            if (!digit(s, n, i))
                return -1;
            long e = 0;
            for (; digit(s, n, i); i++)
                if (e <= 2 * MAX_POW10)  /* past 44 it is refused either way */
                    e = e * 10 + (s[i] - '0');
            scale += minus ? -e : e;
        }
        if (scale < -MAX_POW10 || scale > MAX_POW10 || count == cap)
            return -1;
        double x = scale < 0 ? (double)w / POW10[-scale] : (double)w * POW10[scale];
        out[count++] = negative && !(integer && w == 0) ? -x : x;
        while (i < n && json_space(s[i]))
            i++;
        if (i == n)
            return (ptrdiff_t)count;
        if (s[i] != ',')
            return -1;
        i++;
    }
}

/* Writes the n decimal digits of v, leading zeros included, to s. */
static void put_digits(char *s, uint64_t v, int n)
{
    while (n--) {
        s[n] = (char)('0' + v % 10);
        v /= 10;
    }
}

/* The text json.dumps(x.tolist()) gives for the n doubles at x, written to
   out; returns its length, or -1 unless every value is zero or a 6-decimal
   number k/1e6 with 1e-6 <= |x| < 1e9. It also returns -1 where cap might
   not hold the text: 2 + 19*n bytes always do.

   Such a value's repr is its decimal (the printing counterpart of the
   reader above: Steele and White, "How to Print Floating-Point Numbers
   Accurately", PLDI 1990). It has at most 15 significant digits, so no
   shorter decimal reads back as the same double and no search for one is
   needed. repr writes the sign bit's '-', so -0.0 is "-0.0", the whole
   digits, the point and the fraction without its trailing zeros, one digit
   kept each side of the point. Below 1e-4, where |k| < 100, it writes an
   exponent instead: 5e-06, 1e-05, 1.5e-05. k = rint(x*1e6) and the test
   k/1e6 == x are each rounded once, as numpy's rint, multiply and divide
   round them. */
ptrdiff_t format_six_decimals(const double *x, size_t n, char *out, size_t cap)
{
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
    return -1;  /* an extended intermediate would round twice */
#endif
    /* a value's ", ", its at most 17 characters ("-999999999.999999") and "]" */
    const size_t room = 2 + 17 + 1;
    size_t at = 0;
    if (cap < 2)
        return -1;
    out[at++] = '[';
    for (size_t i = 0; i < n; i++) {
        double v = x[i], a = fabs(v);
        if (!(a < 1e9) || (a < 1e-6 && v != 0))  /* NaN fails a < 1e9 */
            return -1;
        double k = rint(v * 1e6);
        if (k / 1e6 != v || cap - at < room)
            return -1;
        if (i) {
            out[at++] = ',';
            out[at++] = ' ';
        }
        if (signbit(v))
            out[at++] = '-';
        uint64_t u = (uint64_t)fabs(k);
        if (u != 0 && u < 100) {
            out[at++] = (char)('0' + (u < 10 ? u : u / 10));
            if (u >= 10 && u % 10) {
                out[at++] = '.';
                out[at++] = (char)('0' + u % 10);
            }
            memcpy(out + at, u < 10 ? "e-06" : "e-05", 4);
            at += 4;
            continue;
        }
        uint64_t whole = u / 1000000, frac = u % 1000000;
        int w = 1, f = 6;
        for (uint64_t t = whole; t >= 10; t /= 10)
            w++;
        put_digits(out + at, whole, w);
        at += (size_t)w;
        out[at++] = '.';
        for (; f > 1 && frac % 10 == 0; f--)
            frac /= 10;
        put_digits(out + at, frac, f);
        at += (size_t)f;
    }
    out[at++] = ']';
    return (ptrdiff_t)at;
}

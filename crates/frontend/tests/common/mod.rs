//! `.tk` probes shared by the kernel-path test files.

/// A skewed two-array kernel whose body and boundaries read original
/// coordinates (`bnd()`, `i`, `mod()`), so every evaluation maps its point
/// through `T⁻¹`.
pub const SKEWED: &str = "\
kernel probe
param T = 4
param N = 6
iter t = 1 to T
iter i = 1 to N
iter j = 1 to N
skew = [1,0,0; 1,1,0; 2,0,1]
array A = bnd() + 0.5*i
array B = mod(3*t - j, 7)
A[t,i,j] = 0.25*(A[t,i-1,j] + A[t-1,i,j+1]) + bnd()*t + B[t-1,i,j]
B[t,i,j] = B[t,i,j-1] - mod(5*i + j, 11)*0.125 + A[t-1,i+1,j]
";

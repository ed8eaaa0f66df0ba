// Links the reference kernel with nothing else and checks that it is
// deterministic: the same work on every call.
#include <cstdio>

#include "calib.hpp"

int
main()
{
    for (int i = 0; i < 3; ++i) {
        std::uint64_t sum = 0;
        std::int64_t ns = perfbench::runReferenceKernel(sum);
        if (sum != perfbench::referenceChecksum() || ns <= 0) {
            std::fprintf(stderr, "reference kernel: checksum %llx, %lld ns\n",
                         static_cast<unsigned long long>(sum),
                         static_cast<long long>(ns));
            return 1;
        }
    }
    std::puts("reference kernel links alone and repeats");
    return 0;
}

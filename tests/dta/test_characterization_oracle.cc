/**
 * Pinned characterization oracle (ctest label tier1dta).
 *
 * IA, WA (sobel and k-means) and DA characterization run at small op
 * counts, seed 7, at VR15 and VR20, and the CRC-32 of every cached
 * `.stats` file — the saveCampaignStats byte string — is compared with
 * a table recorded before the compiled engine became the only batched
 * DTA path. Existing `_p3` cache files keep loading only while these
 * bytes stay the same, so any change to the DTA engines, the campaign
 * sharding or the stats serialization that moves one bit shows here.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "circuit/celllib.hh"
#include "core/toolflow.hh"
#include "models/error_models.hh"
#include "util/crc32.hh"

using namespace tea;

TEST(CharacterizationOracle, StatsBytesMatchPinnedCrcs)
{
    auto dir = std::filesystem::temp_directory_path() /
               ("tea_dta_oracle_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);

    core::ToolflowOptions opt;
    opt.seed = 7;
    // 1100 ops/type: two full 512-op shards plus a partial one.
    opt.iaCountPerOp = 1100;
    opt.waMaxOps = 3000;
    opt.daSampleOps = 2800; // 400 ops from each of the 7 workloads
    opt.threads = 2;
    opt.cacheDir = dir.string();
    {
        core::Toolflow tf(opt);
        for (double vr : {circuit::kVR15, circuit::kVR20}) {
            tf.iaStats(vr);
            tf.waStats("sobel", vr);
            tf.waStats("k-means", vr);
            tf.daErrorRatio(vr);
        }
    }

    std::map<std::string, uint32_t> got;
    uint64_t faulty = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(e.path(), std::ios::binary);
        std::string bytes(std::istreambuf_iterator<char>(in), {});
        got[e.path().filename().string()] = crc32(bytes);
        timing::CampaignStats st;
        ASSERT_EQ(models::loadCampaignStats(e.path().string(), st),
                  models::CacheLoad::Loaded);
        faulty += st.totalFaulty();
    }
    std::filesystem::remove_all(dir);
    // The pin only means something if timing errors occur.
    EXPECT_GT(faulty, 0u);

    const std::map<std::string, uint32_t> pinned = {
        {"da_all_n2800_vr15_s7_p3.stats", 0x333665b5u},
        {"da_all_n2800_vr20_s7_p3.stats", 0x19c5c192u},
        {"ia_rnd_n1100_vr15_s7_p3.stats", 0xdd5b8c95u},
        {"ia_rnd_n1100_vr20_s7_p3.stats", 0x82f0f3bdu},
        {"wa_k-means_n3000_vr15_s7_p3.stats", 0xebe4b8c5u},
        {"wa_k-means_n3000_vr20_s7_p3.stats", 0xee4b350au},
        {"wa_sobel_n3000_vr15_s7_p3.stats", 0xe5b8b36cu},
        {"wa_sobel_n3000_vr20_s7_p3.stats", 0xaed4e288u},
    };
    EXPECT_EQ(got, pinned);
}

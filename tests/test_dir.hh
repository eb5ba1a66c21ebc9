/**
 * @file
 * A scratch directory for one test in one process.
 *
 * Tests that write files put them in a TestDir instead of under fixed
 * names in ::testing::TempDir(). The directory is named by the process
 * id and the running test, so two test runs at once (say, two builds'
 * ctest) never share, overwrite or delete each other's files, and it
 * is removed, with everything in it, when the test ends.
 */

#ifndef CORONA_TESTS_TEST_DIR_HH
#define CORONA_TESTS_TEST_DIR_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace corona::test {

class TestDir
{
  public:
    TestDir()
    {
        const ::testing::TestInfo *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        _path = std::filesystem::path(::testing::TempDir()) /
                ("corona-" + std::to_string(::getpid()) + "-" +
                 test->test_suite_name() + "." + test->name());
        std::filesystem::remove_all(_path);
        std::filesystem::create_directories(_path);
    }

    ~TestDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(_path, ec);
    }

    TestDir(const TestDir &) = delete;
    TestDir &operator=(const TestDir &) = delete;

    const std::filesystem::path &path() const { return _path; }

    /** The path of @p name inside the directory. */
    std::string
    file(const std::string &name) const
    {
        return (_path / name).string();
    }

  private:
    std::filesystem::path _path;
};

} // namespace corona::test

#endif // CORONA_TESTS_TEST_DIR_HH

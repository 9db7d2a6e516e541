// Exhaustive coverage for Status/Result and the error-propagation macros,
// added alongside the [[nodiscard]] sweep (see DESIGN.md "Error handling &
// analysis"). The basics live in common_test.cc; this file covers the
// contract edges: every StatusCode, equality, macro hygiene (shadowing,
// nesting), LAKEKIT_CHECK_OK, and the nodiscard compile-fail reference.

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"

namespace lakekit {
namespace {

// Every non-OK code, for exhaustive loops below.
const std::vector<StatusCode> kErrorCodes = {
    StatusCode::kInvalidArgument, StatusCode::kNotFound,
    StatusCode::kAlreadyExists,   StatusCode::kIoError,
    StatusCode::kCorruption,      StatusCode::kNotSupported,
    StatusCode::kFailedPrecondition, StatusCode::kAborted,
    StatusCode::kOutOfRange,      StatusCode::kInternal,
    StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
    StatusCode::kResourceExhausted,
};

TEST(StatusCodeNameTest, EveryCodeHasAStableUniqueName) {
  std::vector<std::string> seen;
  seen.emplace_back(StatusCodeName(StatusCode::kOk));
  EXPECT_EQ(seen.back(), "OK");
  for (StatusCode code : kErrorCodes) {
    std::string name(StatusCodeName(code));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "Unknown") << "code " << static_cast<int>(code);
    for (const std::string& prior : seen) EXPECT_NE(name, prior);
    seen.push_back(std::move(name));
  }
}

TEST(StatusTest, ToStringForEveryCode) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  for (StatusCode code : kErrorCodes) {
    Status s(code, "ctx");
    std::string expected = std::string(StatusCodeName(code)) + ": ctx";
    EXPECT_EQ(s.ToString(), expected);
  }
}

TEST(StatusTest, FactoryHelpersRoundTripTheirCode) {
  EXPECT_EQ(Status::InvalidArgument("m").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("m").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("m").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IoError("m").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Corruption("m").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported("m").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::FailedPrecondition("m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Aborted("m").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::OutOfRange("m").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("m").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DeadlineExceeded("m").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Unavailable("m").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::ResourceExhausted("m").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Aborted("x"));
}

TEST(StatusTest, PredicatesMatchTheirCodeOnly) {
  Status nf = Status::NotFound("m");
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.IsAlreadyExists());
  EXPECT_FALSE(nf.IsAborted());
  EXPECT_FALSE(nf.IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("m").IsAlreadyExists());
  EXPECT_TRUE(Status::Aborted("m").IsAborted());
  EXPECT_TRUE(Status::InvalidArgument("m").IsInvalidArgument());
  Status re = Status::ResourceExhausted("m");
  EXPECT_TRUE(re.IsResourceExhausted());
  EXPECT_FALSE(re.IsUnavailable());
  EXPECT_FALSE(Status::Unavailable("m").IsResourceExhausted());
}

// The overload-protection split (see query/admission.h): shedding at the
// front door is kUnavailable — transient, the queue drains — while a budget
// refusal is kResourceExhausted — permanent, an immediate retry re-exhausts
// the same budget.
TEST(StatusTest, TransientClassificationSplitsShedFromExhausted) {
  EXPECT_TRUE(IsTransientError(Status::Unavailable("shed: queue full")));
  EXPECT_FALSE(
      IsTransientError(Status::ResourceExhausted("budget refused 1MiB")));
  EXPECT_FALSE(IsTransientError(Status::DeadlineExceeded("spent")));
}

// ------------------------------------------------ macro propagation paths

Status ReturnIfErrorPassThrough(const Status& first, const Status& second) {
  LAKEKIT_RETURN_IF_ERROR(first);
  LAKEKIT_RETURN_IF_ERROR(second);
  return Status::OK();
}

TEST(ReturnIfErrorTest, OkFallsThroughErrorShortCircuits) {
  EXPECT_TRUE(ReturnIfErrorPassThrough(Status::OK(), Status::OK()).ok());
  EXPECT_EQ(ReturnIfErrorPassThrough(Status::Aborted("a"), Status::OK()),
            Status::Aborted("a"));
  EXPECT_EQ(ReturnIfErrorPassThrough(Status::OK(), Status::IoError("b")),
            Status::IoError("b"));
}

// The macro's internal status must not shadow or capture caller locals with
// similar names; `expr` may itself mention `_lakekit_status`.
Status ReturnIfErrorShadowProbe() {
  Status _lakekit_status = Status::Corruption("caller-owned");
  LAKEKIT_RETURN_IF_ERROR(Status::OK());
  LAKEKIT_RETURN_IF_ERROR(_lakekit_status.ok() ? Status::OK()
                                               : Status::Aborted("probe"));
  return Status::NotFound("fell through");
}

TEST(ReturnIfErrorTest, DoesNotShadowCallerLocals) {
  EXPECT_EQ(ReturnIfErrorShadowProbe(), Status::Aborted("probe"));
}

// Two expansions in one scope (and an if-else without braces) must compile
// and behave — the do-while wrapper plus __COUNTER__ names guarantee it.
Status ReturnIfErrorNestedBranches(bool which) {
  if (which)
    LAKEKIT_RETURN_IF_ERROR(Status::OutOfRange("left"));
  else
    LAKEKIT_RETURN_IF_ERROR(Status::Internal("right"));
  return Status::OK();
}

TEST(ReturnIfErrorTest, ExpandsInBracelessBranches) {
  EXPECT_EQ(ReturnIfErrorNestedBranches(true), Status::OutOfRange("left"));
  EXPECT_EQ(ReturnIfErrorNestedBranches(false), Status::Internal("right"));
}

Result<int> PositiveOrError(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> SumViaAssignOrReturn(int a, int b) {
  LAKEKIT_ASSIGN_OR_RETURN(int va, PositiveOrError(a));
  LAKEKIT_ASSIGN_OR_RETURN(int vb, PositiveOrError(b));
  return va + vb;
}

TEST(AssignOrReturnTest, BindsValueAndPropagatesError) {
  Result<int> ok = SumViaAssignOrReturn(2, 3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> err = SumViaAssignOrReturn(2, -1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status(), Status::InvalidArgument("not positive"));
}

// Move-only payloads must flow through the macro's std::move without copies.
Result<std::unique_ptr<int>> MakeBox(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return std::make_unique<int>(x);
}

Result<int> UnboxViaAssignOrReturn(int x) {
  LAKEKIT_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBox(x));
  return *box;
}

TEST(AssignOrReturnTest, SupportsMoveOnlyTypes) {
  Result<int> ok = UnboxViaAssignOrReturn(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_TRUE(UnboxViaAssignOrReturn(-1).status().code() ==
              StatusCode::kOutOfRange);
}

TEST(ResultTest, ValueOrFallsBackOnError) {
  EXPECT_EQ(PositiveOrError(4).value_or(-1), 4);
  EXPECT_EQ(PositiveOrError(0).value_or(-1), -1);
}

TEST(CheckOkTest, OkStatusAndResultPassThrough) {
  LAKEKIT_CHECK_OK(Status::OK());
  LAKEKIT_CHECK_OK(PositiveOrError(1));
}

TEST(CheckOkDeathTest, NonOkAbortsWithContext) {
  EXPECT_DEATH(LAKEKIT_CHECK_OK(Status::IoError("disk gone")),
               "LAKEKIT_CHECK_OK.*disk gone");
}

// `.status()` of a temporary Result is a reference into that temporary; the
// macro must read it before the temporary dies (ASan reports
// stack-use-after-scope otherwise).
TEST(CheckOkTest, StatusOfTemporaryResultIsReadInTime) {
  LAKEKIT_CHECK_OK(PositiveOrError(1).status());
}

TEST(CheckOkDeathTest, NonOkStatusOfTemporaryResultAborts) {
  EXPECT_DEATH(LAKEKIT_CHECK_OK(PositiveOrError(0).status()),
               "LAKEKIT_CHECK_OK");
}

// ------------------------------------------------ nodiscard compile-fail
//
// `Status` and `Result<T>` are class-level [[nodiscard]], and the build runs
// with -Werror=unused-result, so discarding either is a hard compile error.
// There is no portable way to assert "this does not compile" from within a
// test, so this block is the maintained reference: flip the `#if 0` to 1 and
// the tree must fail to build with
//   error: ignoring returned value of type 'lakekit::Status' ...
#if 0
void DiscardedStatusMustNotCompile() {
  Status::Internal("dropped");          // error: nodiscard
  PositiveOrError(1);                   // error: nodiscard
}
#endif

// What the attribute itself guarantees is at least statically checkable:
static_assert(!std::is_convertible_v<Status, void>,
              "Status is a value type, not implicitly void-convertible");

}  // namespace
}  // namespace lakekit
